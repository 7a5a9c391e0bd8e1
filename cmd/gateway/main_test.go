package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/cluster"
	"repro/internal/stats"
)

// TestStatusPage GETs /status from the side listener's handler on a
// two-scene topology with probing off: the body is the gateway's
// routing table and backend health, as plain text.
func TestStatusPage(t *testing.T) {
	top := &cluster.Topology{
		Order: []string{"city", "park"},
		Replicas: map[string][]string{
			"city": {"127.0.0.1:7001", "127.0.0.1:7002"},
			"park": {"127.0.0.1:7002"},
		},
	}
	gw, err := cluster.NewGateway(cluster.GatewayConfig{Topology: top, Stats: stats.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	srv := httptest.NewServer(statusHandler(gw))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Fatalf("Content-Type %q", ct)
	}
	want := "city = 127.0.0.1:7001, 127.0.0.1:7002\n" +
		"park = 127.0.0.1:7002\n" +
		"backend 127.0.0.1:7001: up\n" +
		"backend 127.0.0.1:7002: up\n"
	if string(body) != want {
		t.Fatalf("body:\n%s\nwant:\n%s", body, want)
	}
}
