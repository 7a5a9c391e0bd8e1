package cluster

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzCluster throws arbitrary bytes at the cluster layer's
// operator-facing decoder, the topology parser (config files are
// hand-edited — the classic source of hostile input). The invariant is
// totality plus validated output: no panic, no over-allocation, and an
// accepted topology has every scene named validly with at least one
// well-formed replica address.
func FuzzCluster(f *testing.F) {
	// A valid file, then structurally damaged variants and raw bytes.
	valid := "city = 127.0.0.1:7001, 127.0.0.1:7002\npark = 127.0.0.1:7002\n"
	f.Add([]byte(valid))
	f.Add([]byte("# only a comment\n"))
	f.Add([]byte("city 127.0.0.1:7001\n"))
	f.Add([]byte("city = \n"))
	f.Add([]byte(strings.Replace(valid, "=", "==", 1)))
	f.Add(bytes.Repeat([]byte("a = b:1\n"), 4))
	f.Add([]byte(valid + "city = 127.0.0.1:7003\n"))
	f.Add([]byte("city = 127.0.0.1:7001, , 127.0.0.1:7002\n"))
	f.Add([]byte(" = 127.0.0.1:7001\n"))
	f.Add([]byte("ci/ty = [::1]:7001\r\n"))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		top, err := ParseTopology(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(top.Order) == 0 {
			t.Fatal("accepted topology with no scenes")
		}
		if top.Default() == "" {
			t.Fatal("accepted topology without a default scene")
		}
		for _, scene := range top.Order {
			reps, ok := top.Replicas[scene]
			if !ok || len(reps) == 0 {
				t.Fatalf("accepted scene %q with no replicas", scene)
			}
		}
		if len(top.Replicas) != len(top.Order) {
			t.Fatal("order and replica map disagree")
		}
	})
}
