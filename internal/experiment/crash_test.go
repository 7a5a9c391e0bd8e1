package experiment

import (
	"fmt"
	"strings"
	"testing"
)

// TestRunCrash is the kill-restart acceptance test: a resilient client
// streams under faultnet while the server is killed three times at
// seeded random frames and restarted from its checkpoints and session
// journal. RunCrash itself enforces the acceptance criteria — meshes
// byte-identical to a crash-free oracle, at least one resume served from
// the recovered journal, and the injected torn tails truncated without
// inventing data — and returns an error if any fails. Seed 5 corrupts
// every whole attempt of one frame, so that frame must arrive as
// budgeted pieces. Both seeds run at a 40-object, 120-step scale for speed.
func TestRunCrash(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{7, 5} {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			var b strings.Builder
			if err := RunCrash(CrashSpec{TramSoakSpec: TramSoakSpec{Seed: seed, Objects: 40, Steps: 120}}, &b); err != nil {
				t.Fatalf("crash experiment failed: %v\n%s", err, b.String())
			}
			out := b.String()
			for _, want := range []string{"crash-restart", "restarts 3", "convergence OK"} {
				if !strings.Contains(out, want) {
					t.Errorf("output missing %q:\n%s", want, out)
				}
			}
		})
	}
}

// TestRunCrashColdJournal is the cold-journal regression: the session
// journal is deleted at every restart, so no resume can be served from
// recovered state — every reconnect across a restart falls back to a
// full re-plan, which must still converge byte-identically. RunCrash
// asserts both (zero restored resumes, at least one re-plan).
func TestRunCrashColdJournal(t *testing.T) {
	t.Parallel()
	var b strings.Builder
	if err := RunCrash(CrashSpec{TramSoakSpec: TramSoakSpec{Seed: 7, Objects: 40, Steps: 120}, ColdJournal: true}, &b); err != nil {
		t.Fatalf("cold-journal crash experiment failed: %v\n%s", err, b.String())
	}
	out := b.String()
	for _, want := range []string{"cold journal", "restored-journal resumes 0", "convergence OK"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
