package motion

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func TestKalmanTracksConstantVelocity(t *testing.T) {
	k := NewKalmanPredictor(0.01, 0.01)
	pos := geom.V2(100, 200)
	v := geom.V2(3, -2)
	for i := 0; i < 100; i++ {
		k.Observe(pos)
		pos = pos.Add(v)
	}
	pr := k.Predict(5)
	// pos is now 1 step past the last observation; the filter's state sits
	// at the last observation.
	want := pos.Add(v.Scale(4))
	if pr.Mean.Dist(want) > 0.5 {
		t.Fatalf("predict(5) = %v want %v", pr.Mean, want)
	}
}

func TestKalmanFiltersNoise(t *testing.T) {
	// With noisy measurements of a straight path, the filtered velocity
	// should be close to the true velocity — much closer than raw
	// single-step differencing.
	rng := rand.New(rand.NewSource(5))
	k := NewKalmanPredictor(0.05, 4.0)
	truth := geom.V2(0, 0)
	v := geom.V2(5, 1)
	var lastMeas, prevMeas geom.Vec2
	for i := 0; i < 300; i++ {
		meas := truth.Add(geom.V2(rng.NormFloat64()*2, rng.NormFloat64()*2))
		k.Observe(meas)
		prevMeas, lastMeas = lastMeas, meas
		truth = truth.Add(v)
	}
	filtered := geom.V2(k.vx, k.vy)
	raw := lastMeas.Sub(prevMeas)
	if filtered.Sub(v).Len() >= raw.Sub(v).Len() {
		t.Errorf("filtered velocity error %v not below raw differencing %v",
			filtered.Sub(v).Len(), raw.Sub(v).Len())
	}
	if filtered.Sub(v).Len() > 1 {
		t.Errorf("filtered velocity %v far from truth %v", filtered, v)
	}
}

func TestKalmanReadiness(t *testing.T) {
	k := NewKalmanPredictor(0, 0)
	if k.Ready() {
		t.Fatal("ready with no data")
	}
	if pr := k.Predict(1); !math.IsInf(pr.VarX, 1) {
		t.Error("unready prediction should have infinite variance")
	}
	k.Observe(geom.V2(1, 1))
	if k.Ready() {
		t.Fatal("ready with one observation")
	}
	k.Observe(geom.V2(2, 2))
	if !k.Ready() {
		t.Fatal("not ready with two observations")
	}
}

func TestKalmanVarianceGrowsWithHorizon(t *testing.T) {
	k := NewKalmanPredictor(1, 1)
	rng := rand.New(rand.NewSource(6))
	pos := geom.V2(0, 0)
	for i := 0; i < 100; i++ {
		pos = pos.Add(geom.V2(2+rng.NormFloat64(), rng.NormFloat64()))
		k.Observe(pos)
	}
	prev := 0.0
	for _, steps := range []int{1, 3, 9} {
		pr := k.Predict(steps)
		if pr.VarX <= prev {
			t.Fatalf("variance not growing: %v at %d steps after %v", pr.VarX, steps, prev)
		}
		prev = pr.VarX
	}
}

func TestKalmanWorksAsEstimatorInProbabilities(t *testing.T) {
	g := geom.NewGrid(testSpace(), 20, 20)
	k := NewKalmanPredictor(0.1, 0.5)
	pos := geom.V2(200, 500)
	for i := 0; i < 60; i++ {
		k.Observe(pos)
		pos = pos.Add(geom.V2(8, 0))
	}
	probs := VisitProbabilities(k, g, 5)
	if len(probs) == 0 {
		t.Fatal("no probabilities")
	}
	var east, west float64
	for c, pv := range probs {
		if g.CellCenter(c).X > k.Current().X {
			east += pv
		} else if g.CellCenter(c).X < k.Current().X {
			west += pv
		}
	}
	if east <= west {
		t.Errorf("east mass %v not above west %v", east, west)
	}
}

// TestKalmanVsRLSOnTours documents the relationship between the filter
// variants: the RLS predictor (which learns dynamics) must be at least
// competitive with the fixed-dynamics Kalman filter on tram tours.
func TestKalmanVsRLSOnTours(t *testing.T) {
	avgErr := func(mk func() Estimator) float64 {
		var sum float64
		var n int
		for seed := int64(0); seed < 4; seed++ {
			tour := NewTour(Tram, TourSpec{Space: testSpace(), Steps: 300, Speed: 0.5},
				rand.New(rand.NewSource(seed)))
			p := mk()
			for i := 0; i < tour.Len(); i++ {
				if p.Ready() && i+5 < tour.Len() {
					sum += p.Predict(5).Mean.Dist(tour.Pos[i+5])
					n++
				}
				p.Observe(tour.Pos[i])
			}
		}
		return sum / float64(n)
	}
	rls := avgErr(func() Estimator { return NewPredictor(3) })
	kal := avgErr(func() Estimator { return NewKalmanPredictor(0.5, 0.1) })
	if rls > kal*1.2 {
		t.Errorf("RLS error %v much worse than Kalman %v", rls, kal)
	}
}
