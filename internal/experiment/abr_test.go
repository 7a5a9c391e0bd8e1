package experiment

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunABR is the graceful-degradation acceptance gate at reduced
// scale: the oscillating-throttle soak must complete without a stall,
// every frame must fit its budget, at least one response must have been
// truncated, and the budget stats must reconcile exactly (RunABR errors
// on any violation).
func TestRunABR(t *testing.T) {
	var b strings.Builder
	if err := RunABR(ABRSpec{Seed: 7, Steps: 24}, &b); err != nil {
		t.Fatalf("abr experiment failed: %v\n%s", err, b.String())
	}
	out := b.String()
	for _, want := range []string{"abr:", "estimator:", "acceptance OK"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunABRProfiles smokes the other throttle schedules the flag
// surface exposes.
func TestRunABRProfiles(t *testing.T) {
	for _, profile := range []string{"step", "ramp"} {
		var b strings.Builder
		if err := RunABR(ABRSpec{Seed: 11, Steps: 16, Profile: profile}, &b); err != nil {
			t.Fatalf("%s profile: %v\n%s", profile, err, b.String())
		}
	}
	if err := RunABR(ABRSpec{Profile: "sawtooth"}, &strings.Builder{}); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

// TestABRBenchSmoke runs the utility-vs-bandwidth sweep end to end: the
// gates must hold (monotone ABR curve, ABR >= fixed at every level —
// RunABRBench errors otherwise) and the artifact must round-trip.
func TestABRBenchSmoke(t *testing.T) {
	path := filepath.Join(t.TempDir(), "abr.json")
	spec := ABRBenchSpec{Seed: 3, Frames: 12}
	var out bytes.Buffer
	res, err := RunABRBench(spec, path, &out)
	if err != nil {
		t.Fatalf("abr bench failed: %v\n%s", err, out.String())
	}
	if len(res.Points) != 6 {
		t.Fatalf("points = %d, want 6 throttle levels", len(res.Points))
	}
	if !res.Monotone || !res.Dominates {
		t.Fatalf("gates not recorded in result: %+v", res)
	}
	for i, p := range res.Points {
		if p.ABRCoeffs == 0 {
			t.Fatalf("level %d delivered nothing: %+v", i, p)
		}
		if i > 0 && p.ABRUtility < res.Points[i-1].ABRUtility {
			t.Fatalf("utility fell from %.2f to %.2f between levels %d and %d",
				res.Points[i-1].ABRUtility, p.ABRUtility, i-1, i)
		}
		if p.ABRUtility < p.FixedUtility {
			t.Fatalf("fixed controller beat abr at %d B/s: %.2f vs %.2f",
				p.BytesPerSecond, p.FixedUtility, p.ABRUtility)
		}
	}
	// The tightest level must actually degrade the fixed controller,
	// otherwise the comparison is vacuous.
	if res.Points[0].DegradedFrames == 0 {
		t.Fatalf("fixed controller never degraded at %d B/s", res.Points[0].BytesPerSecond)
	}

	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var onDisk ABRBenchResult
	if err := json.Unmarshal(buf, &onDisk); err != nil {
		t.Fatal(err)
	}
	if len(onDisk.Points) != len(res.Points) || !onDisk.Dominates {
		t.Fatalf("artifact does not match result: %+v", onDisk)
	}
}
