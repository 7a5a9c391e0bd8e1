package experiment

import (
	"strings"
	"testing"
)

// TestRunFault runs the fault-injection experiment: a small scale that
// must converge (RunFault errors otherwise) and report its summary lines;
// seeds 2, 5 and 23 at the default scale, whose largest frames outgrow
// the link's drop interval and must arrive as budgeted pieces; and a
// scale whose tour misses every object, which must be refused rather
// than pass on an empty comparison.
func TestRunFault(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name    string
		spec    TramSoakSpec
		wantErr string // "" = must converge
	}{
		{"converges", TramSoakSpec{Seed: 7, Objects: 20, Steps: 60}, ""},
		{"seed-2", TramSoakSpec{Seed: 2}, ""},
		{"seed-5", TramSoakSpec{Seed: 5}, ""},
		{"seed-23", TramSoakSpec{Seed: 23}, ""},
		{"empty-oracle", TramSoakSpec{Seed: 14, Objects: 40, Steps: 120}, "retrieved no objects"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel() // the default-scale datasets take most of the time to build
			var b strings.Builder
			err := RunFault(FaultSpec{TramSoakSpec: tc.spec}, &b)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q\n%s", err, tc.wantErr, b.String())
				}
				return
			}
			if err != nil {
				t.Fatalf("fault experiment failed: %v\n%s", err, b.String())
			}
			for _, want := range []string{"fault injection", "convergence OK"} {
				if !strings.Contains(b.String(), want) {
					t.Errorf("output missing %q:\n%s", want, b.String())
				}
			}
		})
	}
}
