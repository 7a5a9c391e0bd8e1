package index

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faultdisk"
	"repro/internal/persist"
)

// buildFaultyPaged builds a segment from a fresh store and opens it
// through a faultdisk reader with no transient weather, so tests can
// plant permanent corruption precisely.
func buildFaultyPaged(t *testing.T, cfg PagedConfig) (*Store, *PagedStore, *faultdisk.Reader) {
	t.Helper()
	mem := NewStore(testObjects(t, 5))
	path := filepath.Join(t.TempDir(), "coeffs.seg")
	if err := BuildSegment(path, mem, 2, 512); err != nil {
		t.Fatalf("BuildSegment: %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	fd := faultdisk.New(f, faultdisk.Config{})
	seg, err := persist.NewSegment(fd, fi.Size())
	if err != nil {
		t.Fatalf("NewSegment: %v", err)
	}
	ps, err := NewPagedSegment(seg, cfg)
	if err != nil {
		t.Fatalf("NewPagedSegment: %v", err)
	}
	t.Cleanup(func() { ps.Close() })
	return mem, ps, fd
}

// firstIDOn returns the lowest coefficient id stored on a page.
func firstIDOn(ps *PagedStore, page int) int64 {
	for id := int64(0); id < ps.NumCoeffs(); id++ {
		if ps.PageOf(id) == page {
			return id
		}
	}
	panic("index: empty page")
}

// TestPagedCoeffUnavailable: a coefficient on a corrupt page reports
// ErrPageUnavailable (wrapping the pager's ErrCorrupt), healthy pages
// keep serving, and after the corruption clears a scrub restores the
// page to service.
func TestPagedCoeffUnavailable(t *testing.T) {
	mem, ps, fd := buildFaultyPaged(t, PagedConfig{CacheBytes: 1 << 20, RetryMax: 1})
	seg := ps.Segment()
	badPage := seg.NumPages() / 2
	fd.SetCorrupt(seg.PageOffset(badPage), int64(seg.PageSize()))
	badID := firstIDOn(ps, badPage)

	_, err := ps.Coeff(badID)
	if !errors.Is(err, ErrPageUnavailable) {
		t.Fatalf("Coeff(%d) = %v, want ErrPageUnavailable", badID, err)
	}
	if !errors.Is(err, persist.ErrCorrupt) {
		t.Fatalf("Coeff(%d) = %v, want the ErrCorrupt cause preserved", badID, err)
	}

	// Healthy pages are unaffected by the quarantined neighbor.
	if got := MustCoeff(ps, 0); *got != *MustCoeff(mem, 0) {
		t.Fatalf("healthy Coeff(0) = %+v, want the in-memory value", got)
	}

	// Heal the disk: quarantine holds until a scrub verifies the page,
	// then the coefficient serves again, identical to the oracle.
	fd.ClearCorrupt()
	if _, err := ps.Coeff(badID); !errors.Is(err, ErrPageUnavailable) {
		t.Fatalf("Coeff(%d) before scrub = %v, want quarantine fast-fail", badID, err)
	}
	bad, err := ps.VerifyPages()
	if err != nil || len(bad) != 0 {
		t.Fatalf("post-heal VerifyPages = %v, %v, want clean", bad, err)
	}
	if got := MustCoeff(ps, badID); *got != *MustCoeff(mem, badID) {
		t.Fatalf("healed Coeff(%d) = %+v, want the in-memory value", badID, got)
	}
}

// TestPagedPinsSkipFaultyPage: a frame's pin set reading across a
// corrupt page gets ErrPageUnavailable for that page alone, keeps
// serving the healthy ones, and holds no reference to the bad page, so
// Release leaves nothing pinned.
func TestPagedPinsSkipFaultyPage(t *testing.T) {
	mem, ps, fd := buildFaultyPaged(t, PagedConfig{CacheBytes: 1 << 20, RetryMax: 1})
	seg := ps.Segment()
	badPage := seg.NumPages() - 1
	fd.SetCorrupt(seg.PageOffset(badPage), int64(seg.PageSize()))
	badID := firstIDOn(ps, badPage)

	pins := ps.NewPins()
	for _, id := range []int64{0, badID, 1} {
		c, err := pins.Coeff(id)
		if id == badID {
			if !errors.Is(err, ErrPageUnavailable) {
				t.Fatalf("Pins.Coeff(%d) = %v, want ErrPageUnavailable", id, err)
			}
			continue
		}
		if err != nil || *c != *MustCoeff(mem, id) {
			t.Fatalf("healthy Pins.Coeff(%d) = %+v, %v", id, c, err)
		}
	}
	if st := ps.PagerStats(); st.PagesPinned != 1 {
		t.Fatalf("PagesPinned = %d with one healthy page open, want 1", st.PagesPinned)
	}
	pins.Release()
	st := ps.PagerStats()
	if st.PagesPinned != 0 {
		t.Fatalf("PagesPinned = %d after Release, want 0", st.PagesPinned)
	}
	if st.Pins != st.Hits+st.Faults {
		t.Fatalf("identities broken after a failed pin: %+v", st)
	}
}
