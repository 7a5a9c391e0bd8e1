package experiment

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
)

// durability matches a crash summary's durability and recovery lines.
// A resume that arrives while the server still holds the dropped
// connection takes the session over, so how many park records the
// journal replays and how many resumes hit no longer depend on timing.
var durability = regexp.MustCompile(`(?m)^  (durability|recovery): .*$`)

// runCrashTwice runs the crash experiment twice at one spec and returns
// the first summary. The scene file is written once, the truncated torn
// tails are exactly the injected ones and every resume finds its
// session parked, so the two runs must print the same durability and
// recovery lines.
func runCrashTwice(t *testing.T, spec CrashSpec) string {
	t.Helper()
	var outs, lines [2]string
	for i := range outs {
		var b strings.Builder
		if err := RunCrash(spec, &b); err != nil {
			t.Fatalf("crash experiment failed (run %d): %v\n%s", i, err, b.String())
		}
		outs[i] = b.String()
		lines[i] = strings.Join(durability.FindAllString(outs[i], -1), "\n")
	}
	if lines[0] == "" || lines[0] != lines[1] {
		t.Fatalf("same seed, different durability or recovery lines:\n%s\n%s", outs[0], outs[1])
	}
	return outs[0]
}

// TestRunCrash is the kill-restart acceptance test: a resilient client
// streams under faultnet while the server is killed three times at
// seeded random frames and restarted from its scene file and session
// journal. RunCrash itself enforces the acceptance criteria — meshes
// byte-identical to a crash-free oracle, at least one resume served from
// the recovered journal, the scene file written exactly once, and
// exactly the injected torn tails truncated without inventing data —
// and returns an error if any fails; each seed runs twice and must print
// the same durability and recovery lines. Seed 5 corrupts every whole
// attempt of one frame, so that frame must arrive as budgeted pieces.
// Both seeds run at a 40-object, 120-step scale for speed.
func TestRunCrash(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{7, 5} {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			out := runCrashTwice(t, CrashSpec{TramSoakSpec: TramSoakSpec{Seed: seed, Objects: 40, Steps: 120}})
			for _, want := range []string{"crash-restart", "restarts 3", "checkpoints 1 (", "tails truncated 2 ", "convergence OK"} {
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
// asserts both (zero restored resumes, at least one re-plan); the torn
// park record is deleted with its journal, so only the scene file's
// tail is truncated. It runs twice and must print the same durability
// and recovery lines.
func TestRunCrashColdJournal(t *testing.T) {
	t.Parallel()
	out := runCrashTwice(t, CrashSpec{TramSoakSpec: TramSoakSpec{Seed: 7, Objects: 40, Steps: 120}, ColdJournal: true})
	for _, want := range []string{"cold journal", "checkpoints 1 (", "tails truncated 1 ", "restored-journal resumes 0", "convergence OK"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
