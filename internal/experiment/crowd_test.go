package experiment

import (
	"os"
	"testing"
)

// TestRunCrowd is the crowd-serving acceptance gate: coalesced and
// subscribed serving must be byte-identical to independent serving,
// with every sharing counter reconciling exactly. Run it under -race — the coalescer's followers
// and the subscription layer only engage under real concurrency.
func TestRunCrowd(t *testing.T) {
	if err := RunCrowd(CrowdRunSpec{Seed: 7}, os.Stderr); err != nil {
		t.Fatal(err)
	}
}

// TestRunCrowdNoOverlap pins the degenerate crowd: with no flocking
// there is nothing to share, but serving must still be byte-identical
// and the counters must still reconcile.
func TestRunCrowdNoOverlap(t *testing.T) {
	if err := RunCrowd(CrowdRunSpec{Seed: 11, Overlap: -1, Clients: 6, Steps: 12}, os.Stderr); err != nil {
		t.Fatal(err)
	}
}
