package experiment

import (
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

// TestRunCrash is the kill-and-fault acceptance test: a resilient
// client streams under faultnet while the server is killed three times
// at seeded random frames and restarted from its scene file and session
// journal — after a torn scene-file tail, a torn park record and a
// deleted journal in turn. RunCrash itself enforces the acceptance
// criteria — meshes byte-identical to a crash-free, fault-free oracle,
// a resume served from the recovered journal after the first kill, the
// scene file written exactly once, exactly the injected torn tails
// truncated without inventing data, and, after the lost journal, no
// restored resume but a re-plan — and returns an error if any fails;
// each spec runs twice and must print the same durability and recovery
// lines. Seeds 7 and 5 run at a 40-object, 120-step scale (seed 5
// corrupts every whole attempt of one frame, so that frame must arrive
// as budgeted pieces); seeds 2, 5 and 23 at the default scale, whose
// largest frames outgrow the link's drop interval. A scale whose tour
// misses every object must be refused rather than pass on an empty
// comparison.
func TestRunCrash(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name    string
		spec    TramSoakSpec
		wantErr string // "" = must converge
	}{
		{"seed-7", TramSoakSpec{Seed: 7, Objects: 40, Steps: 120}, ""},
		{"seed-5", TramSoakSpec{Seed: 5, Objects: 40, Steps: 120}, ""},
		{"default-seed-2", TramSoakSpec{Seed: 2}, ""},
		{"default-seed-5", TramSoakSpec{Seed: 5}, ""},
		{"default-seed-23", TramSoakSpec{Seed: 23}, ""},
		{"empty-oracle", TramSoakSpec{Seed: 14, Objects: 40, Steps: 120}, "retrieved no objects"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel() // the default-scale datasets take most of the time to build
			spec := CrashSpec{TramSoakSpec: tc.spec}
			if tc.wantErr != "" {
				var b strings.Builder
				if err := RunCrash(spec, &b); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q\n%s", err, tc.wantErr, b.String())
				}
				return
			}
			out := runCrashTwice(t, spec)
			for _, want := range []string{"crash-restart", "restarts 3", "checkpoints 1 (", "tails truncated 2 ", "convergence OK"} {
				if !strings.Contains(out, want) {
					t.Errorf("output missing %q:\n%s", want, out)
				}
			}
		})
	}
}
