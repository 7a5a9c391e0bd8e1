package motion

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func TestLinearPredictorExactOnConstantVelocity(t *testing.T) {
	p := NewLinearPredictor()
	pos := geom.V2(100, 200)
	v := geom.V2(4, -3)
	for i := 0; i < 50; i++ {
		p.Observe(pos)
		pos = pos.Add(v)
	}
	pr := p.Predict(5)
	want := p.Current().Add(v.Scale(5))
	if pr.Mean.Dist(want) > 1e-6 {
		t.Fatalf("predict = %v want %v", pr.Mean, want)
	}
	// Noiseless motion → (near) zero variance.
	if pr.VarX > 1e-9 || pr.VarY > 1e-9 {
		t.Errorf("variance on noiseless motion: %v %v", pr.VarX, pr.VarY)
	}
}

func TestLinearPredictorReadiness(t *testing.T) {
	p := NewLinearPredictor()
	if p.Ready() {
		t.Fatal("ready with no data")
	}
	pr := p.Predict(3)
	if !math.IsInf(pr.VarX, 1) {
		t.Error("unready prediction should have infinite variance")
	}
	p.Observe(geom.V2(1, 1))
	if p.Ready() {
		t.Fatal("ready with one observation")
	}
	p.Observe(geom.V2(2, 2))
	if !p.Ready() {
		t.Fatal("not ready with two observations")
	}
	if p.Current() != geom.V2(2, 2) {
		t.Errorf("current = %v", p.Current())
	}
}

func TestLinearPredictorVarianceGrowsWithNoise(t *testing.T) {
	noisy := NewLinearPredictor()
	smooth := NewLinearPredictor()
	rng := rand.New(rand.NewSource(4))
	pn, ps := geom.V2(0, 0), geom.V2(0, 0)
	for i := 0; i < 200; i++ {
		pn = pn.Add(geom.V2(3+rng.NormFloat64()*2, rng.NormFloat64()*2))
		ps = ps.Add(geom.V2(3, 0))
		noisy.Observe(pn)
		smooth.Observe(ps)
	}
	if noisy.Predict(3).VarX <= smooth.Predict(3).VarX {
		t.Error("noisy motion should have larger predicted variance")
	}
}

// TestRLSBeatsLinearOnTurns is the ablation behind the paper's critique
// of linear-movement prefetching: on turning (tram) and erratic (walk)
// tours, the state-estimation predictor must beat constant-velocity
// extrapolation on multi-step error.
func TestRLSBeatsLinearOnTurns(t *testing.T) {
	avgErr := func(mk func() Estimator, kind TourKind) float64 {
		var sum float64
		var n int
		for seed := int64(0); seed < 5; seed++ {
			tour := NewTour(kind, TourSpec{Space: testSpace(), Steps: 400, Speed: 0.5},
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
	// Structured motion (tram): RLS must clearly win — it fits the
	// straight-run/turn dynamics linear extrapolation cannot.
	rls := avgErr(func() Estimator { return NewPredictor(3) }, Tram)
	lin := avgErr(func() Estimator { return NewLinearPredictor() }, Tram)
	if rls >= lin {
		t.Errorf("tram: RLS error %v not below linear %v", rls, lin)
	}
	// Erratic motion (walk) is barely predictable by anything; RLS just
	// must not be meaningfully worse than the baseline.
	rlsW := avgErr(func() Estimator { return NewPredictor(3) }, Pedestrian)
	linW := avgErr(func() Estimator { return NewLinearPredictor() }, Pedestrian)
	if rlsW > 1.15*linW {
		t.Errorf("walk: RLS error %v well above linear %v", rlsW, linW)
	}
}

func TestEstimatorGenericProbabilities(t *testing.T) {
	g := geom.NewGrid(testSpace(), 20, 20)
	p := NewLinearPredictor()
	pos := geom.V2(300, 500)
	for i := 0; i < 50; i++ {
		p.Observe(pos)
		pos = pos.Add(geom.V2(6, 0))
	}
	probs := VisitProbabilities(p, g, 5)
	if len(probs) == 0 {
		t.Fatal("no probabilities from linear estimator")
	}
	var sum float64
	for _, v := range probs {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("sum = %v", sum)
	}
	fp := FrameVisitProbabilities(p, g, 5, 100)
	if len(fp) < len(probs) {
		t.Error("frame probabilities narrower than point probabilities")
	}
}
