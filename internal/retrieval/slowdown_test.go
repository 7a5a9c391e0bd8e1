package retrieval

import (
	"math"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/index"
)

// refPlanner is Algorithm 1's planner as it was before the float32 band
// rule: it asks for the slowdown band whenever the cutoff falls, by
// however little, and always moves prevW to the new cutoff. The tests
// hold the rule to it.
type refPlanner struct {
	havePrev bool
	prev     geom.Rect2
	prevW    float64
}

func (r *refPlanner) PlanFrame(q geom.Rect2, speed float64) []SubQuery {
	w := Identity(speed)
	if !r.havePrev || q.Intersect(r.prev).Empty() {
		return []SubQuery{{Region: q, WMin: w, WMax: 1}}
	}
	var subs []SubQuery
	if w < r.prevW {
		subs = append(subs, SubQuery{Region: q.Intersect(r.prev), WMin: w, WMax: r.prevW})
	}
	for _, n := range q.Difference(r.prev) {
		subs = append(subs, SubQuery{Region: n, WMin: w, WMax: 1})
	}
	return subs
}

func (r *refPlanner) Advance(q geom.Rect2, speed float64) {
	r.havePrev, r.prev, r.prevW = true, q, Identity(speed)
}

func (r *refPlanner) Reset() { r.havePrev = false }

// subFloat32 counts the frames' band sub-queries whose ends round to the
// same float32.
func subFloat32(frames [][]SubQuery) int {
	n := 0
	for _, frame := range frames {
		for _, sub := range frame {
			if sub.WMax < 1 && float32(sub.WMin) == float32(sub.WMax) {
				n++
			}
		}
	}
	return n
}

// TestNoSubFloat32Bands runs the benchmark's tours through both
// planners. A pedestrian's speed, derived from positions, wobbles by
// ulps around 0.2: the reference plans a band between each two wobbles
// (1 257 over these tours), Client plans none. A tram's bands are real
// slowdowns, and both planners ask exactly the same sub-queries.
func TestNoSubFloat32Bands(t *testing.T) {
	space := benchCity().Bounds().XY()
	walk, refWalk := walkFrames(NewClient(nil, nil), space, 16), walkFrames(&refPlanner{}, space, 16)
	if n := subFloat32(walk); n != 0 {
		t.Errorf("walk: %d of %d bands have float32-equal ends", n, bands(walk))
	}
	if subFloat32(refWalk) == 0 {
		t.Fatal("walk: the reference planned no sub-float32 band; the tours no longer wobble")
	}
	t.Logf("walk: %d bands, reference %d (%d sub-float32)", bands(walk), bands(refWalk), subFloat32(refWalk))

	tram, refTram := tramFrames(NewClient(nil, nil), space, 8), tramFrames(&refPlanner{}, space, 8)
	if bands(refTram) == 0 {
		t.Fatal("tram: the reference planned no band")
	}
	if len(tram) != len(refTram) {
		t.Fatalf("tram: %d frames, reference %d", len(tram), len(refTram))
	}
	for i := range tram {
		if !slices.EqualFunc(tram[i], refTram[i], sameSub) {
			t.Fatalf("tram frame %d: %+v, reference %+v", i, tram[i], refTram[i])
		}
	}
}

func sameSub(a, b SubQuery) bool {
	return a.Region == b.Region && a.WMin == b.WMin && a.WMax == b.WMax
}

// TestSlowdownBandRule walks the rule's cases one frame at a time: a
// sub-float32 slowdown plans no band and keeps prevW, so the next real
// slowdown's band reaches up to it; a pause still plans [0, prevW]; and
// Reset, FrustumFrame and a jump out of the window still give a
// wholesale frame at the new cutoff, after which prevW is that cutoff.
func TestSlowdownBandRule(t *testing.T) {
	up := math.Nextafter(0.2, 1)
	down := math.Nextafter(math.Nextafter(0.2, 0), 0)
	a, b := geom.R2(0, 0, 400, 400), geom.R2(20, 0, 420, 400)
	want := func(step string, got []SubQuery, subs ...SubQuery) {
		t.Helper()
		if !slices.EqualFunc(got, subs, sameSub) {
			t.Fatalf("%s: plan %+v, want %+v", step, got, subs)
		}
	}
	diff := func(q, prev geom.Rect2, w float64) SubQuery {
		return SubQuery{Region: q.Difference(prev)[0], WMin: w, WMax: 1}
	}

	c := NewClient(NewSession(testServer(t, 4, 61)), nil)
	c.Frame(a, up)
	want("wobble down", c.PlanFrame(b, down), diff(b, a, down))
	c.Frame(b, down)
	want("slowdown after a wobble", c.PlanFrame(a, 0.1),
		SubQuery{Region: a.Intersect(b), WMin: 0.1, WMax: up}, diff(a, b, 0.1))
	c.Frame(a, 0.1)
	want("pause", c.PlanFrame(a, 0), SubQuery{Region: a, WMin: 0, WMax: 0.1})
	c.Frame(a, 0)
	c.Frame(a, up)

	wholesale := func(step string, q geom.Rect2) {
		t.Helper()
		want(step, c.PlanFrame(q, down), SubQuery{Region: q, WMin: down, WMax: 1})
		c.Frame(q, down)
		want(step+", then slow down", c.PlanFrame(q, 0.1), SubQuery{Region: q, WMin: 0.1, WMax: down})
	}
	// Each of these follows a frame at up, so a planner that kept prevW
	// across them would bound the next band at up, not down.
	c.Reset()
	wholesale("reset", a)
	c.Frame(a, up)
	c.FrustumFrame(geom.NewFrustum(geom.V2(200, 200), 0, 1, 100), up)
	wholesale("after a frustum", a)
	c.Frame(a, up)
	// A jump planned against prevW = up: the window is wholesale, and
	// prevW stays up because down is less than a float32 below it.
	far := geom.R2(600, 600, 1000, 1000)
	want("jump", c.PlanFrame(far, down), SubQuery{Region: far, WMin: down, WMax: 1})
	c.Frame(far, down)
	want("jump, then slow down", c.PlanFrame(far, 0.1), SubQuery{Region: far, WMin: 0.1, WMax: up})
}

// FuzzPlanFrame drives Client and the reference planner through the
// same random walk — steps, jumps, pauses and Resets at speeds jittered
// by a few ulps around a handful of paces — each on its own session over
// one small store. Every frame must deliver the ids the reference
// delivers, every band Client plans must have float32-distinct ends, and
// a plan-only Client (PlanFrame + Advance) must plan what Frame plans.
// The paces lie away from every coefficient value, so the sub-float32
// gaps Client skips hold nothing, as on any real scene (values reach the
// client as float32).
func FuzzPlanFrame(f *testing.F) {
	srv := testServer(f, 3, 43)
	paces := []float64{0.05, 0.15, 0.2, 0.35, 0.5, 0.7, 0.9, 1}
	for id := int64(0); id < srv.Store().NumCoeffs(); id++ {
		v := index.MustCoeff(srv.Store(), id).Value
		for _, p := range paces {
			if v != p && math.Abs(v-p) < 1e-9 {
				f.Fatalf("coefficient %d's value %v lies within 1e-9 of pace %v", id, v, p)
			}
		}
	}
	f.Add([]byte{3, 0x99, 0x22, 3, 0x99, 0x0a, 3, 0x99, 0x32, 2, 0x88, 0, 3, 0x88, 0x05})
	f.Add([]byte{3, 0x98, 0x12, 3, 0x89, 0x2a, 1, 0x37, 0x22, 0, 0x88, 0x1a, 3, 0x99, 0x02})
	f.Add([]byte{4, 0xa9, 0x43, 5, 0x9a, 0x3b, 6, 0x78, 0x1b, 7, 0x87, 0x03, 2, 0x88, 0, 4, 0x99, 0x0b})
	f.Fuzz(func(t *testing.T, ops []byte) {
		c, plan, ref := NewClient(NewSession(srv), nil), NewClient(nil, nil), &refPlanner{}
		refSess := NewSession(srv)
		pos := geom.V2(500, 500)
		var prev geom.Rect2
		havePrev := false
		for i := 0; i+2 < len(ops) && i < 3*64; i += 3 {
			kind, move, pace := ops[i], ops[i+1], ops[i+2]
			// The move byte is a step of (−8..7)·15 units per axis, or a
			// jump to one of 256 spots.
			step := geom.V2(float64(int(move&15)-8)*15, float64(int(move>>4)-8)*15)
			speed := paces[pace&7]
			for k := int(pace>>3)%9 - 4; k != 0; k -= sign(k) {
				speed = math.Nextafter(speed, float64(sign(k)))
			}
			switch kind % 8 {
			case 0:
				c.Reset()
				plan.Reset()
				ref.Reset()
				havePrev = false
			case 1:
				pos = geom.V2(float64(move&15)*60+50, float64(move>>4)*60+50)
			case 2:
				speed = 0
			default:
				pos = pos.Add(step)
			}
			q := geom.RectAround(pos, 300)

			subs := c.PlanFrame(q, speed)
			if got := plan.PlanFrame(q, speed); !slices.EqualFunc(got, subs, sameSub) {
				t.Fatalf("frame %d: plan-only client plans %+v, Frame %+v", i/3, got, subs)
			}
			if havePrev && len(subs) > 0 && subs[0].Region == q.Intersect(prev) &&
				!(float32(subs[0].WMin) < float32(subs[0].WMax)) {
				t.Fatalf("frame %d: band [%v, %v] has float32-equal ends", i/3, subs[0].WMin, subs[0].WMax)
			}
			got, _ := c.Frame(q, speed)
			plan.Advance(q, speed)
			wantIDs := refSess.Retrieve(ref.PlanFrame(q, speed)).IDs
			ref.Advance(q, speed)
			a, b := slices.Clone(got.IDs), slices.Clone(wantIDs)
			slices.Sort(a)
			slices.Sort(b)
			if !slices.Equal(a, b) {
				t.Fatalf("frame %d at speed %v: delivered %d ids, reference %d", i/3, speed, len(a), len(b))
			}
			prev, havePrev = q, true
		}
	})
}

func sign(k int) int {
	if k < 0 {
		return -1
	}
	return 1
}
