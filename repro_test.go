package repro

import "testing"

// TestFacadeEndToEnd exercises the public API the way the README's
// quickstart does: generate, assemble, tour, compare.
func TestFacadeEndToEnd(t *testing.T) {
	d := GenerateDataset(DatasetSpec{NumObjects: 25, Levels: 3, Seed: 2})
	if d.Store.NumObjects() != 25 {
		t.Fatalf("objects = %d", d.Store.NumObjects())
	}

	tours := Tours(Tram, TourSpec{Space: d.Spec.Space, Steps: 100, Speed: 0.5}, 2, 9)
	if len(tours) != 2 {
		t.Fatalf("tours = %d", len(tours))
	}

	ma := NewSystem(SystemConfig{Dataset: d, Kind: MotionAwareSystem})
	nv := NewSystem(SystemConfig{Dataset: d, Kind: NaiveSystem})
	for _, tour := range tours {
		a := ma.RunTour(tour)
		b := nv.RunTour(tour)
		if a.Frames != tour.Len() || b.Frames != tour.Len() {
			t.Fatal("frame counts wrong")
		}
	}
}

func TestFacadeGeometryHelpers(t *testing.T) {
	r := R2(0, 0, 10, 10)
	if !r.Contains(V2(5, 5)) {
		t.Fatal("containment broken through facade")
	}
}

func TestFacadePredictor(t *testing.T) {
	p := NewPredictor(3)
	for i := 0; i < 20; i++ {
		p.Observe(V2(float64(i), 0))
	}
	if pr := p.Predict(2); pr.Mean.X <= 19 {
		t.Errorf("prediction %v not ahead of motion", pr.Mean)
	}
}

func TestFacadeLink(t *testing.T) {
	l := DefaultLink()
	if l.BitsPerSecond != 256_000 {
		t.Errorf("link = %+v", l)
	}
}

func TestFacadeFigureGenerators(t *testing.T) {
	if testing.Short() {
		t.Skip("figure generation is slow")
	}
	// One cheap figure through the facade proves the wiring.
	tbl := Fig12(ExperimentConfig{Quick: true, Seed: 3, Objects: 20, Tours: 1, Steps: 60})
	if tbl.ID != "fig12" || len(tbl.Series) != 2 {
		t.Fatalf("table = %+v", tbl)
	}
	if tbl.Format() == "" {
		t.Fatal("empty format")
	}
}

func TestFacadePlacements(t *testing.T) {
	if Uniform == Zipf {
		t.Fatal("placement constants collide")
	}
	if Tram == Pedestrian {
		t.Fatal("tour kinds collide")
	}
	if MotionAwareSystem == NaiveSystem {
		t.Fatal("system kinds collide")
	}
}

func TestFacadeExtensions(t *testing.T) {
	k := NewKalmanPredictor(0, 0)
	l := NewLinearPredictor()
	for i := 0; i < 10; i++ {
		p := V2(float64(i)*2, 0)
		k.Observe(p)
		l.Observe(p)
	}
	if !k.Ready() || !l.Ready() {
		t.Fatal("estimators not ready")
	}
	f := NewFrustum(V2(0, 0), 0, 1.0, 10)
	if !f.Contains(V2(5, 0)) {
		t.Fatal("frustum broken through facade")
	}
}
