package experiment

import "testing"

func TestAblationGeneratorsComplete(t *testing.T) {
	gens := AblationGenerators()
	want := []string{"abl-index", "abl-predictor", "abl-sectors", "abl-layout", "abl-compactness"}
	if len(gens) != len(want) {
		t.Fatalf("%d generators", len(gens))
	}
	for i, g := range gens {
		if g.ID != want[i] {
			t.Errorf("generator %d = %s want %s", i, g.ID, want[i])
		}
	}
}

func TestAblIndexVariantShape(t *testing.T) {
	tbl := quickTable(t, "abl-index")
	if len(tbl.Series) != 3 {
		t.Fatalf("series = %d", len(tbl.Series))
	}
	// Every variant's I/O falls with speed.
	for _, s := range tbl.Series {
		if s.Y[0] <= s.Y[len(s.Y)-1] {
			t.Errorf("%s: io did not fall with speed: %v", s.Name, s.Y)
		}
	}
}

func TestAblLayoutShape(t *testing.T) {
	tbl := quickTable(t, "abl-layout")
	xyw := seriesByName(t, tbl, "xyw")
	xyzw := seriesByName(t, tbl, "xyzw")
	// The 3D layout the paper evaluates must not cost more I/O than the 4D
	// design for ground-plane window queries.
	for i := range xyw.Y {
		if xyw.Y[i] > xyzw.Y[i] {
			t.Errorf("xyw io %v above xyzw %v at speed %v", xyw.Y[i], xyzw.Y[i], xyw.X[i])
		}
	}
}

func TestAblCompactnessShape(t *testing.T) {
	tbl := quickTable(t, "abl-compactness")
	wv := seriesByName(t, tbl, "wavelet")
	pm := seriesByName(t, tbl, "progressive-mesh")
	// Errors fall monotonically (within noise) for both encodings.
	assertMonotone(t, tbl, "wavelet", true)
	assertMonotone(t, tbl, "progressive-mesh", true)
	// §II: at comparable byte budgets the wavelet error is lower. Compare
	// at the PM trace's mid-budget against the wavelet value at no greater
	// budget.
	mid := len(pm.X) / 2
	budget := pm.X[mid]
	best := -1
	for i, x := range wv.X {
		if x <= budget {
			best = i
		}
	}
	if best < 0 {
		t.Skip("wavelet trace has no point under the PM mid budget")
	}
	if wv.Y[best] > pm.Y[mid] {
		t.Errorf("wavelet error %v above PM error %v at ≤%v KB", wv.Y[best], pm.Y[mid], budget)
	}
}

func TestAblPredictorRuns(t *testing.T) {
	tbl := quickTable(t, "abl-predictor")
	if len(tbl.Series) != 4 {
		t.Fatalf("series = %d", len(tbl.Series))
	}
	for _, s := range tbl.Series {
		for i, y := range s.Y {
			if y < 0 || y > 100 {
				t.Errorf("%s[%d] = %v out of percent range", s.Name, i, y)
			}
		}
	}
}

func TestAblSectorsRuns(t *testing.T) {
	tbl := quickTable(t, "abl-sectors")
	hit := seriesByName(t, tbl, "hit rate")
	if len(hit.X) != 3 {
		t.Fatalf("k sweep = %v", hit.X)
	}
	for _, y := range hit.Y {
		if y <= 0 {
			t.Errorf("hit rate %v", y)
		}
	}
}
