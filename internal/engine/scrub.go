package engine

import (
	"sync"
	"time"

	"repro/internal/stats"
)

// PageVerifier is the scrub hook of an out-of-core store: re-read and
// CRC-verify every page, quarantining corrupt ones and lifting the
// quarantine of pages that now read clean. index.PagedStore implements
// it (VerifyPages delegates to persist.Pager.Scrub).
type PageVerifier interface {
	VerifyPages() ([]int, error)
}

// StartScrubber runs store.VerifyPages on a ticker — the background
// scrub cadence that keeps quarantine state converging with the actual
// disk instead of only at boot (-verify-pages) or on demand. Each pass
// is counted in the engine.scrub_runs row; passes that find corrupt
// pages (or fail outright) are logged. The returned stop function is idempotent,
// halts the ticker, and waits for an in-flight pass to finish — call it
// on shutdown before closing the store. interval <= 0 or a nil store
// disables the scrubber (stop is still safe to call).
func StartScrubber(store PageVerifier, interval time.Duration, st *stats.Stats, logf func(format string, args ...any)) (stop func()) {
	if store == nil || interval <= 0 {
		return func() {}
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				bad, err := store.VerifyPages()
				st.Add(stats.EngineScrubRuns, 1)
				switch {
				case err != nil:
					logf("scrub: pass failed: %v", err)
				case len(bad) > 0:
					logf("scrub: %d page(s) quarantined: %v", len(bad), bad)
				}
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			<-finished
		})
	}
}
