package engine

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/stats"
)

// fakeVerifier is a PageVerifier that counts passes and can be scripted
// to report quarantined pages or an error.
type fakeVerifier struct {
	mu     sync.Mutex
	passes int
	bad    []int
	err    error
}

func (f *fakeVerifier) VerifyPages() ([]int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.passes++
	return f.bad, f.err
}

func (f *fakeVerifier) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.passes
}

// TestScrubberTicks proves the scrubber actually runs passes on its
// cadence, counts them in stats, and stops cleanly.
func TestScrubberTicks(t *testing.T) {
	fv := &fakeVerifier{}
	st := stats.New()
	stop := StartScrubber(fv, time.Millisecond, st, nil)

	deadline := time.Now().Add(5 * time.Second)
	for fv.count() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("scrubber ran only %d passes in 5s", fv.count())
		}
		time.Sleep(time.Millisecond)
	}
	stop()

	runs := st.Load(stats.EngineScrubRuns)
	if runs < 3 {
		t.Fatalf("ScrubRuns = %d, want >= 3", runs)
	}
	if int(runs) != fv.count() {
		t.Fatalf("ScrubRuns = %d but store saw %d passes", runs, fv.count())
	}

	// After stop the ticker is dead: no further passes.
	n := fv.count()
	time.Sleep(20 * time.Millisecond)
	if fv.count() != n {
		t.Fatalf("scrubber kept running after stop: %d -> %d passes", n, fv.count())
	}
}

// TestScrubberStopIdempotent calls stop twice (shutdown paths often
// double up) and from concurrent goroutines.
func TestScrubberStopIdempotent(t *testing.T) {
	fv := &fakeVerifier{}
	stop := StartScrubber(fv, time.Millisecond, stats.New(), nil)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stop()
		}()
	}
	wg.Wait()
	stop() // and once more serially
}

// TestScrubberDisabled covers the no-op configurations: nil store and
// non-positive interval both return a safe stop func and never tick.
func TestScrubberDisabled(t *testing.T) {
	st := stats.New()
	StartScrubber(nil, time.Millisecond, st, nil)()
	fv := &fakeVerifier{}
	StartScrubber(fv, 0, st, nil)()
	StartScrubber(fv, -time.Second, st, nil)()
	time.Sleep(10 * time.Millisecond)
	if fv.count() != 0 {
		t.Fatalf("disabled scrubber ran %d passes", fv.count())
	}
	if runs := st.Load(stats.EngineScrubRuns); runs != 0 {
		t.Fatalf("disabled scrubber recorded %d runs", runs)
	}
}

// TestScrubberLogsFindings routes quarantine reports and errors through
// the supplied logf.
func TestScrubberLogsFindings(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	logf := func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, format)
		mu.Unlock()
	}

	fv := &fakeVerifier{bad: []int{2, 5}}
	stop := StartScrubber(fv, time.Millisecond, stats.New(), logf)
	waitFor(t, func() bool { return fv.count() >= 1 })
	stop()
	mu.Lock()
	quarantined := len(lines) > 0
	mu.Unlock()
	if !quarantined {
		t.Fatal("quarantined pages were not logged")
	}

	lines = nil
	fv = &fakeVerifier{err: errors.New("disk gone")}
	stop = StartScrubber(fv, time.Millisecond, stats.New(), logf)
	waitFor(t, func() bool { return fv.count() >= 1 })
	stop()
	mu.Lock()
	failed := len(lines) > 0
	mu.Unlock()
	if !failed {
		t.Fatal("scrub pass failure was not logged")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
