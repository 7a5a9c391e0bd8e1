package proto

import (
	"bytes"
	"net"
	"reflect"
	"testing"

	"repro/internal/hotcache"
	"repro/internal/index"
	"repro/internal/retrieval"
	"repro/internal/stats"
	"repro/internal/wavelet"
	"repro/internal/workload"
)

// startHotServer is startHardenedServer with a hot cache wired into the
// retrieval layer, for the budgeted-payload-replay tests.
func startHotServer(t *testing.T) (addr string, d *workload.Dataset, hot *hotcache.Cache, shutdown func()) {
	t.Helper()
	d = workload.Generate(workload.Spec{NumObjects: 8, Levels: 3, Seed: 5})
	rsrv := retrieval.NewServer(d.Store, index.NewSharded(d.Store, index.XYW, index.ShardedConfig{}))
	hot = hotcache.New(hotcache.Config{})
	rsrv.SetHotCache(hot)
	srv := NewServer(rsrv, d.Spec.Levels, t.Logf)
	srv.SetStats(stats.New())
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(lis); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	return lis.Addr().String(), d, hot, func() {
		srv.Close()
		<-done
	}
}

// TestBudgetedFrameServedFromHotPayload pins the satellite behaviour:
// a budgeted frame whose budget keeps the full coefficient set is
// served from the cached hot payload — byte-identical on the wire to
// the populating encode pass. The region's first ask is a first touch
// that stores nothing; the second populates; the third replays.
func TestBudgetedFrameServedFromHotPayload(t *testing.T) {
	addr, d, hot, shutdown := startHotServer(t)
	defer shutdown()
	req := Request{Subs: []retrieval.SubQuery{{Region: d.Store.Bounds().XY(), WMin: 0, WMax: 1}}, MaxBytes: 1 << 40}

	// Session zero is the region's first touch: answered, nothing kept,
	// no subscription.
	frame0, _ := rawExchange(t, addr, req)
	if hs := hot.Stats(); hs.Entries != 0 || hs.Subscribers != 0 {
		t.Fatalf("first touch left %d entries, %d subscribers", hs.Entries, hs.Subscribers)
	}

	// Session one pays the encode pass and populates the payload cache.
	frame1, resp1 := rawExchange(t, addr, req)
	if len(resp1.Coeffs) == 0 || resp1.Dropped != 0 {
		t.Fatalf("populating frame: %d coeffs, %d dropped", len(resp1.Coeffs), resp1.Dropped)
	}
	if hs := hot.Stats(); hs.PayloadHits != 0 || hs.Entries != 1 {
		t.Fatalf("populating frame: %d payload hits, %d entries", hs.PayloadHits, hs.Entries)
	}

	// Session two replays the serialized payload.
	frame2, resp2 := rawExchange(t, addr, req)
	if !bytes.Equal(frame0, frame1) {
		t.Fatalf("first touch and populating frame differ: %d vs %d bytes", len(frame0), len(frame1))
	}
	if !bytes.Equal(frame1, frame2) {
		t.Fatalf("payload replay is not byte-identical: %d vs %d bytes", len(frame1), len(frame2))
	}
	if len(resp2.Coeffs) != len(resp1.Coeffs) {
		t.Fatalf("replayed %d coeffs, want %d", len(resp2.Coeffs), len(resp1.Coeffs))
	}
	if got := hot.Stats().PayloadHits; got < 1 {
		t.Fatal("non-truncated budgeted frame did not replay the cached payload")
	}
}

// TestBudgetedTruncationBypassesHotPayload is the counterpart: once the
// budget truncates the frame, the response is per-session state (the
// deterministic prefix depends on what this session has already been
// delivered), so the shared payload cannot be reused — neither on a
// truncated first touch nor on a region the cache holds.
func TestBudgetedTruncationBypassesHotPayload(t *testing.T) {
	addr, d, hot, shutdown := startHotServer(t)
	defer shutdown()
	space := d.Store.Bounds().XY()
	subs := []retrieval.SubQuery{{Region: space, WMin: 0, WMax: 1}}

	// Warm the cache with two unbudgeted passes and learn the universe
	// size.
	rawExchange(t, addr, Request{Subs: subs})
	_, full := rawExchange(t, addr, Request{Subs: subs})
	if len(full.Coeffs) < 4 {
		t.Fatalf("workload too small: %d coeffs", len(full.Coeffs))
	}
	if hs := hot.Stats(); hs.Entries != 1 {
		t.Fatalf("warm-up left %d entries, want 1", hs.Entries)
	}

	budget := int64(len(full.Coeffs)/2) * wavelet.WireBytes
	other := []retrieval.SubQuery{{Region: space, WMin: 0.01, WMax: 1}}
	_, firstTouch := rawExchange(t, addr, Request{Subs: other, MaxBytes: budget})
	if firstTouch.Dropped == 0 {
		t.Fatal("half-universe budget did not truncate the first-touch frame")
	}
	_, truncated := rawExchange(t, addr, Request{Subs: subs, MaxBytes: budget})
	if truncated.Dropped == 0 {
		t.Fatal("half-universe budget did not truncate")
	}
	if int64(len(truncated.Coeffs))*wavelet.WireBytes > budget {
		t.Fatalf("truncated frame overflows its budget: %d coeffs", len(truncated.Coeffs))
	}
	if !reflect.DeepEqual(truncated.Coeffs, full.Coeffs[:len(truncated.Coeffs)]) {
		t.Fatal("truncated frame is not the prefix of the full response")
	}
	if got := hot.Stats().PayloadHits; got != 0 {
		t.Fatalf("truncated frame replayed a payload (%d hits)", got)
	}
}
