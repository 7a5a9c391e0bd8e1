package experiment

import (
	"strings"
	"testing"
)

// runOutOfCore runs the out-of-core acceptance soak at test scale and
// checks its output carries every phase's summary line. RunOutOfCore asserts
// the soak itself; the tests only check the experiment agrees it ran.
func runOutOfCore(t *testing.T, seed int64) {
	t.Helper()
	var b strings.Builder
	if err := RunOutOfCore(OutOfCoreSpec{Seed: seed}, &b); err != nil {
		t.Fatalf("out-of-core soak failed: %v\n%s", err, b.String())
	}
	out := b.String()
	for _, w := range []string{"outofcore:", "clean:", "storm:", "degradation:",
		"byte-identity OK", "convergence OK", "reconciliation OK"} {
		if !strings.Contains(out, w) {
			t.Errorf("output missing %q:\n%s", w, out)
		}
	}
	t.Logf("\n%s", out)
}

// TestRunCity and TestRunDiskFault each run the whole out-of-core soak
// — clean phase, storm, scrub, pre-heal, heal and reconciliation — at
// the seeds the city and disk-fault soaks it replaced ran at (7 and 1),
// so tier-1 covers two city layouts and two fault schedules.
func TestRunCity(t *testing.T) { runOutOfCore(t, 7) }

func TestRunDiskFault(t *testing.T) { runOutOfCore(t, 1) }
