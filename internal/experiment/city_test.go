package experiment

import (
	"strings"
	"testing"
)

// TestRunCity is the out-of-core acceptance soak at test scale: the
// paged store serves a city byte-identically to the in-memory oracle
// under a cache budget 1/8 of the payload, with residency bounded and
// the paging counters reconciling exactly. RunCity asserts all of it;
// the test only checks the experiment agrees it ran.
func TestRunCity(t *testing.T) {
	var b strings.Builder
	if err := RunCity(CitySpec{Seed: 7}, &b); err != nil {
		t.Fatalf("city experiment failed: %v\n%s", err, b.String())
	}
	out := b.String()
	for _, want := range []string{"city:", "reconciliation OK", "byte-identity OK"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
