package proto

import (
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/faultdisk"
	"repro/internal/index"
	"repro/internal/persist"
	"repro/internal/retrieval"
	"repro/internal/rtree"
	"repro/internal/workload"
)

// startFaultyPagedServer serves a small dataset from a paged segment
// read through a fault injector, with the segment's last page corrupt.
// The index build scans the segment before the corruption lands, so
// every coefficient is indexed. It returns the address, the in-memory
// dataset the segment was built from, the injector, the paged store,
// and the first coefficient id on the corrupt page.
func startFaultyPagedServer(t *testing.T) (addr string, d *workload.Dataset, fd *faultdisk.Reader, ps *index.PagedStore, corruptLo int64) {
	t.Helper()
	d = workload.Generate(workload.Spec{NumObjects: 8, Levels: 3, Seed: 5})
	segPath := filepath.Join(t.TempDir(), "coeffs.seg")
	if err := index.BuildSegment(segPath, d.Store, d.Spec.Levels, 4096); err != nil {
		t.Fatalf("BuildSegment: %v", err)
	}
	f, err := os.Open(segPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	fd = faultdisk.New(f, faultdisk.Config{}) // no transient weather: the bad sector is the test
	seg, err := persist.NewSegment(fd, fi.Size())
	if err != nil {
		t.Fatal(err)
	}
	ps, err = index.NewPagedSegment(seg, index.PagedConfig{CacheBytes: 4 * 4096, RetryMax: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ps.Close() })

	idx := index.NewMotionAware(ps, index.XYW, rtree.Config{})
	srv := NewServer(retrieval.NewServer(ps, idx), ps.Levels(), t.Logf)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(srv.Close)

	// Corrupt the last page. Its coefficients are the tail of the id
	// space.
	corruptPage := seg.NumPages() - 1
	fd.SetCorrupt(seg.PageOffset(corruptPage), int64(seg.PageSize()))
	return lis.Addr().String(), d, fd, ps, int64(corruptPage) * int64(seg.RecordsPerPage())
}

// TestDiskFaultIsolation is the `-race` storage-fault regression: with
// one permanently corrupt page in the paged store, a session whose
// frames touch only healthy pages keeps serving byte-identically to an
// in-memory oracle, concurrently with a session whose wholesale frames
// hit the corrupt page and observe withholding — and no frame on either
// session ever errors, because a bad sector degrades coverage, it does
// not kill the server.
func TestDiskFaultIsolation(t *testing.T) {
	addr, d, _, ps, corruptLo := startFaultyPagedServer(t)

	// Oracle server over the in-memory store.
	oidx := index.NewMotionAware(d.Store, index.XYW, rtree.Config{})
	osrv := NewServer(retrieval.NewServer(d.Store, oidx), d.Spec.Levels, t.Logf)
	olis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go osrv.Serve(olis)
	defer osrv.Close()

	// The corrupt page's coefficients are what the wholesale session
	// must lose.
	corruptByObject := map[int32]int{}
	for id := corruptLo; id < ps.NumCoeffs(); id++ {
		corruptByObject[index.MustCoeff(d.Store, id).Object]++
	}

	// The healthy session's territory: the first object's footprint,
	// provably clear of every corrupt-page coefficient position (the
	// workload seed is fixed, so this holds deterministically).
	healthyObj := index.MustCoeff(d.Store, 0).Object
	healthyRect := d.Store.Objects[healthyObj].Bounds().XY().Expand(5)
	if corruptByObject[healthyObj] != 0 {
		t.Fatalf("object %d spans the corrupt page; pick another seed", healthyObj)
	}
	for id := corruptLo; id < ps.NumCoeffs(); id++ {
		if p := index.MustCoeff(d.Store, id).Pos; healthyRect.Contains(p.XY()) {
			t.Fatalf("corrupt-page coefficient %d sits inside the healthy window; pick another seed", id)
		}
	}

	space := d.Store.Bounds().XY()
	var wg sync.WaitGroup

	// Session 1: healthy-page frames, lockstep against the oracle.
	wg.Add(1)
	go func() {
		defer wg.Done()
		healthy, err := Dial(addr, nil)
		if err != nil {
			t.Errorf("healthy dial: %v", err)
			return
		}
		defer healthy.Close()
		oracle, err := Dial(olis.Addr().String(), nil)
		if err != nil {
			t.Errorf("oracle dial: %v", err)
			return
		}
		defer oracle.Close()
		speeds := []float64{0.8, 0.5, 0.25, 0.1, 0}
		for i, speed := range speeds {
			nh, err := healthy.Frame(healthyRect, speed)
			if err != nil {
				t.Errorf("healthy frame %d: %v", i, err)
				return
			}
			no, err := oracle.Frame(healthyRect, speed)
			if err != nil {
				t.Errorf("oracle frame %d: %v", i, err)
				return
			}
			if nh != no {
				t.Errorf("frame %d: healthy session delivered %d, oracle %d — fault leaked into healthy pages", i, nh, no)
				return
			}
		}
		om, ok1 := oracle.Mesh(healthyObj)
		hm, ok2 := healthy.Mesh(healthyObj)
		if !ok1 || !ok2 || om.NumVerts() != hm.NumVerts() {
			t.Errorf("healthy object %d reconstruction missing", healthyObj)
			return
		}
		for v := range om.Verts {
			if om.Verts[v] != hm.Verts[v] {
				t.Errorf("healthy object %d vertex %d not byte-identical under a concurrent disk fault", healthyObj, v)
				return
			}
		}
	}()

	// Session 2: wholesale frames that must hit the corrupt page,
	// observe withholding, and never error.
	wg.Add(1)
	go func() {
		defer wg.Done()
		full, err := Dial(addr, nil)
		if err != nil {
			t.Errorf("wholesale dial: %v", err)
			return
		}
		defer full.Close()
		for i := 0; i < 5; i++ {
			if _, err := full.Frame(space, 0); err != nil {
				t.Errorf("wholesale frame %d: %v", i, err)
				return
			}
		}
		for obj, short := range corruptByObject {
			want := len(d.Store.Objects[obj].Coeffs) - short
			if got := full.CoeffCount(obj); got != want {
				t.Errorf("object %d: wholesale session has %d coefficients, want %d (%d withheld)",
					obj, got, want, short)
			}
		}
	}()

	wg.Wait()
	if st := ps.PagerStats(); st.Quarantined != 1 || st.FaultErrors == 0 {
		t.Fatalf("pager stats = %+v, want the corrupt page quarantined", st)
	}
}

// TestWithheldCoefficientsReturnAfterHeal is the plain-frame heal
// regression: a Frame client that lost coefficients to a corrupt page
// asks for the same window again after the page heals and must then
// hold every coefficient — the withheld count in the response keeps
// its planner from treating the damaged frame as delivered.
func TestWithheldCoefficientsReturnAfterHeal(t *testing.T) {
	addr, d, fd, ps, _ := startFaultyPagedServer(t)
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	space := d.Store.Bounds().XY()
	held := func() (n int64) {
		for obj := range d.Store.Objects {
			n += int64(c.CoeffCount(int32(obj)))
		}
		return n
	}

	if _, err := c.Frame(space, 0); err != nil {
		t.Fatal(err)
	}
	if got := held(); got >= d.Store.NumCoeffs() {
		t.Fatalf("client holds %d of %d coefficients with a corrupt page", got, d.Store.NumCoeffs())
	}

	fd.ClearCorrupt()
	if bad, err := ps.VerifyPages(); err != nil || len(bad) != 0 {
		t.Fatalf("post-heal scrub = %v, %v, want clean", bad, err)
	}
	if _, err := c.Frame(space, 0); err != nil {
		t.Fatal(err)
	}
	if got := held(); got != d.Store.NumCoeffs() {
		t.Fatalf("after the heal the client holds %d of %d coefficients", got, d.Store.NumCoeffs())
	}
}
