package proto

import (
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/faultdisk"
	"repro/internal/hotcache"
	"repro/internal/index"
	"repro/internal/persist"
	"repro/internal/retrieval"
	"repro/internal/rtree"
	"repro/internal/workload"
)

// faultyPaged is a server over a paged segment read through a fault
// injector, with the segment's last page corrupt.
type faultyPaged struct {
	addr string
	d    *workload.Dataset // the in-memory dataset the segment was built from
	fd   *faultdisk.Reader
	ps   *index.PagedStore
	idx  *index.MotionAware
	hot  *hotcache.Cache // nil unless the sharing layers are wired
	// corrupt lists the coefficient ids on the corrupt page, ascending.
	corrupt []int64
}

// startFaultyPagedServer serves a small dataset from a paged segment
// read through a fault injector, with the segment's last page corrupt.
// The index build scans the segment before the corruption lands, so
// every coefficient is indexed. With shared set, the hot cache and the
// coalescer are wired into the retrieval layer.
func startFaultyPagedServer(t *testing.T, shared bool) faultyPaged {
	t.Helper()
	d := workload.Generate(workload.Spec{NumObjects: 8, Levels: 3, Seed: 5})
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
	fd := faultdisk.New(f, faultdisk.Config{}) // no transient weather: the bad sector is the test
	seg, err := persist.NewSegment(fd, fi.Size())
	if err != nil {
		t.Fatal(err)
	}
	ps, err := index.NewPagedSegment(seg, index.PagedConfig{CacheBytes: 4 * 4096, RetryMax: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ps.Close() })

	idx := index.NewMotionAware(ps, index.XYW, rtree.Config{})
	rsrv := retrieval.NewServer(ps, idx)
	var hot *hotcache.Cache
	if shared {
		hot = hotcache.New(hotcache.Config{})
		rsrv.SetHotCache(hot)
		rsrv.SetCoalescer(retrieval.NewCoalescer(retrieval.CoalescerConfig{}))
	}
	srv := NewServer(rsrv, ps.Levels(), t.Logf)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(srv.Close)

	corruptPage := seg.NumPages() - 1
	fd.SetCorrupt(seg.PageOffset(corruptPage), int64(seg.PageSize()))
	var corrupt []int64
	for id := int64(0); id < ps.NumCoeffs(); id++ {
		if ps.PageOf(id) == corruptPage {
			corrupt = append(corrupt, id)
		}
	}
	return faultyPaged{
		addr: lis.Addr().String(), d: d, fd: fd, ps: ps, idx: idx, hot: hot,
		corrupt: corrupt,
	}
}

// bothLayouts runs a disk-fault test against a bare server and against
// one with the hot cache and the coalescer wired.
func bothLayouts(t *testing.T, test func(t *testing.T, f faultyPaged)) {
	for _, shared := range []bool{false, true} {
		name := "bare"
		if shared {
			name = "shared"
		}
		t.Run(name, func(t *testing.T) { test(t, startFaultyPagedServer(t, shared)) })
	}
}

// corruptByObject counts the corrupt page's coefficients per object:
// what a wholesale frame must withhold.
func (f faultyPaged) corruptByObject() map[int32]int {
	m := map[int32]int{}
	for _, id := range f.corrupt {
		m[index.MustCoeff(f.d.Store, id).Object]++
	}
	return m
}

// wholesale is the index query of a first frame over the whole space
// at speed 0: Algorithm 1's single wholesale sub-query over the store's
// z band, the query the sharing layers key the wholesale window by.
func (f faultyPaged) wholesale() index.Query {
	b := f.d.Store.Bounds()
	return index.Query{Region: b.XY(), ZMin: b.Min.Z, ZMax: b.Max.Z, WMin: 0, WMax: 1}
}

// checkWithheld asserts that c holds every coefficient except exactly
// the corrupt page's, and that no payload was stored for the withheld
// wholesale frame.
func (f faultyPaged) checkWithheld(t *testing.T, c *Client) {
	t.Helper()
	for obj, short := range f.corruptByObject() {
		want := len(f.d.Store.Objects[obj].Coeffs) - short
		if got := c.CoeffCount(obj); got != want {
			t.Errorf("object %d: wholesale session has %d coefficients, want %d (%d withheld)",
				obj, got, want, short)
		}
	}
	if f.hot == nil {
		return
	}
	if _, ok := f.hot.Payload(f.wholesale(), f.idx.Epoch()); ok {
		t.Error("a payload was stored for a frame that withheld coefficients")
	}
}

// TestDiskFaultIsolation is the `-race` storage-fault regression: with
// one permanently corrupt page in the paged store, a session whose
// frames touch only healthy pages keeps serving byte-identically to an
// in-memory oracle, concurrently with a session whose wholesale frames
// hit the corrupt page and observe withholding — and no frame on either
// session ever errors, because a bad sector degrades coverage, it does
// not kill the server. With the sharing layers wired, the wholesale
// window is admitted on its second ask and answered from a hot entry
// after that, and withholds the same coefficients.
func TestDiskFaultIsolation(t *testing.T) {
	bothLayouts(t, testDiskFaultIsolation)
}

func testDiskFaultIsolation(t *testing.T, f faultyPaged) {
	d := f.d
	// Oracle server over the in-memory store.
	oidx := index.NewMotionAware(d.Store, index.XYW, rtree.Config{})
	osrv := NewServer(retrieval.NewServer(d.Store, oidx), d.Spec.Levels, t.Logf)
	olis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go osrv.Serve(olis)
	defer osrv.Close()

	// The healthy session's territory: the first object's footprint,
	// provably clear of every corrupt-page coefficient position (the
	// workload seed is fixed, so this holds deterministically).
	healthyObj := index.MustCoeff(d.Store, 0).Object
	healthyRect := d.Store.Objects[healthyObj].Bounds().XY().Expand(5)
	if f.corruptByObject()[healthyObj] != 0 {
		t.Fatalf("object %d spans the corrupt page; pick another seed", healthyObj)
	}
	for _, id := range f.corrupt {
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
		healthy, err := Dial(f.addr, nil)
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
		if !sameMesh(t, oracle, healthy, healthyObj) {
			t.Errorf("healthy object %d not byte-identical under a concurrent disk fault", healthyObj)
		}
	}()

	// Session 2: wholesale frames that must hit the corrupt page,
	// observe withholding, and never error.
	wg.Add(1)
	go func() {
		defer wg.Done()
		full, err := Dial(f.addr, nil)
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
		f.checkWithheld(t, full)
	}()

	wg.Wait()
	if st := f.ps.PagerStats(); st.Quarantined != 1 || st.FaultErrors == 0 {
		t.Fatalf("pager stats = %+v, want the corrupt page quarantined", st)
	}
	if f.hot != nil {
		if hs := f.hot.Stats(); hs.Hits == 0 {
			t.Fatalf("the repeated wholesale window was never answered from the hot cache: %+v", hs)
		}
	}
}

// TestWithheldCoefficientsReturnAfterHeal is the plain-frame heal
// regression: a Frame client that lost coefficients to a corrupt page
// asks for the same window again after the page heals and must then
// hold every coefficient, byte-identical to an in-memory oracle — the
// withheld count in the response keeps its planner from treating the
// damaged frame as delivered. The faulty window is asked twice, so
// with the sharing layers wired it is admitted; a second session's ask
// and the first session's ask after the heal are answered from the hot
// entry stored over the bad page.
func TestWithheldCoefficientsReturnAfterHeal(t *testing.T) {
	bothLayouts(t, testWithheldCoefficientsReturnAfterHeal)
}

func testWithheldCoefficientsReturnAfterHeal(t *testing.T, f faultyPaged) {
	d := f.d
	c, err := Dial(f.addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	space := d.Store.Bounds().XY()
	for i := 0; i < 2; i++ {
		if _, err := c.Frame(space, 0); err != nil {
			t.Fatal(err)
		}
		f.checkWithheld(t, c)
	}
	// A second session's wholesale frame is the whole stored entry (the
	// first session's repeats are only what it still lacks), so it is
	// the frame a payload would be attached to if withholding did not
	// prevent it.
	other, err := Dial(f.addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if _, err := other.Frame(space, 0); err != nil {
		t.Fatal(err)
	}
	f.checkWithheld(t, other)

	f.fd.ClearCorrupt()
	if bad, err := f.ps.VerifyPages(); err != nil || len(bad) != 0 {
		t.Fatalf("post-heal scrub = %v, %v, want clean", bad, err)
	}
	var hitsBefore int64
	if f.hot != nil {
		hitsBefore = f.hot.Stats().Hits
	}
	if _, err := c.Frame(space, 0); err != nil {
		t.Fatal(err)
	}
	if f.hot != nil {
		if hs := f.hot.Stats(); hs.Hits != hitsBefore+1 {
			t.Fatalf("the ask after the heal was not answered from the hot entry: %+v", hs)
		}
		// A new session's wholesale frame withholds nothing now, so its
		// payload is stored: the checks above looked under the right key.
		fresh, err := Dial(f.addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer fresh.Close()
		if _, err := fresh.Frame(space, 0); err != nil {
			t.Fatal(err)
		}
		if _, ok := f.hot.Payload(f.wholesale(), f.idx.Epoch()); !ok {
			t.Fatal("a complete wholesale frame after the heal stored no payload")
		}
	}

	oracle := NewServer(retrieval.NewServer(d.Store, index.NewMotionAware(d.Store, index.XYW, rtree.Config{})), d.Spec.Levels, t.Logf)
	olis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go oracle.Serve(olis)
	defer oracle.Close()
	o, err := Dial(olis.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if _, err := o.Frame(space, 0); err != nil {
		t.Fatal(err)
	}
	for obj := range d.Store.Objects {
		if c.CoeffCount(int32(obj)) != len(d.Store.Objects[obj].Coeffs) || !sameMesh(t, o, c, int32(obj)) {
			t.Fatalf("after the heal object %d is not byte-identical to the oracle's", obj)
		}
	}
}

// sameMesh reports whether two clients reconstructed object obj to the
// same vertices, bit for bit.
func sameMesh(t *testing.T, a, b *Client, obj int32) bool {
	t.Helper()
	am, ok1 := a.Mesh(obj)
	bm, ok2 := b.Mesh(obj)
	if !ok1 || !ok2 || am.NumVerts() != bm.NumVerts() {
		return false
	}
	for v := range am.Verts {
		if am.Verts[v] != bm.Verts[v] {
			return false
		}
	}
	return true
}
