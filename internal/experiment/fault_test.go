package experiment

import (
	"strings"
	"testing"
)

// TestRunFault runs the fault-injection experiment at two scales: one
// that must converge (RunFault errors otherwise) and report its summary
// lines, and one whose tour misses every object, which must be refused
// rather than pass on an empty comparison.
func TestRunFault(t *testing.T) {
	for _, tc := range []struct {
		name    string
		spec    FaultSpec
		wantErr string // "" = must converge
	}{
		{"converges", FaultSpec{Seed: 7, Objects: 20, Steps: 60}, ""},
		{"empty-oracle", FaultSpec{Seed: 14}, "retrieved no objects"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var b strings.Builder
			err := RunFault(tc.spec, &b)
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
