package experiment

import (
	"strings"
	"testing"
)

// skipIfShort honors `go test -short`: the figure pipelines build
// datasets and indexes and are the slow part of the suite.
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("figure pipeline; skipped in -short")
	}
}

// quickCfg keeps experiment tests fast while still exercising the full
// pipelines.
func quickCfg() Config {
	return Config{Quick: true, Seed: 1}
}

func TestConfigFill(t *testing.T) {
	c := Config{}.fill()
	if c.Tours != 5 || c.Objects != 300 || c.Levels != 5 || c.QueryFrac != 0.10 {
		t.Errorf("full defaults: %+v", c)
	}
	q := Config{Quick: true}.fill()
	if q.Objects >= c.Objects || q.Tours >= c.Tours {
		t.Errorf("quick config not smaller: %+v", q)
	}
	if len(c.Speeds) == 0 {
		t.Error("no speed sweep")
	}
}

func TestTableFormat(t *testing.T) {
	tbl := &Table{
		ID: "figX", Title: "demo", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Name: "a", X: []float64{1, 2}, Y: []float64{10, 20}},
			{Name: "b", X: []float64{1, 2}, Y: []float64{30}},
		},
	}
	out := tbl.Format()
	for _, want := range []string{"figX", "demo", "a", "b", "10", "30", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q:\n%s", want, out)
		}
	}
	empty := &Table{ID: "e", Title: "empty"}
	if !strings.Contains(empty.Format(), "no data") {
		t.Error("empty table format")
	}
}

func assertMonotone(t *testing.T, tbl *Table, name string, decreasing bool) {
	t.Helper()
	for _, s := range tbl.Series {
		if s.Name != name {
			continue
		}
		for i := 1; i < len(s.Y); i++ {
			if decreasing && s.Y[i] > s.Y[i-1]*1.02 {
				t.Errorf("%s/%s not decreasing at x=%v: %v → %v",
					tbl.ID, name, s.X[i], s.Y[i-1], s.Y[i])
			}
			if !decreasing && s.Y[i] < s.Y[i-1]*0.98 {
				t.Errorf("%s/%s not increasing at x=%v: %v → %v",
					tbl.ID, name, s.X[i], s.Y[i-1], s.Y[i])
			}
		}
	}
}

func seriesByName(t *testing.T, tbl *Table, name string) Series {
	t.Helper()
	for _, s := range tbl.Series {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("%s: series %q not found", tbl.ID, name)
	return Series{}
}

func TestFig8Shape(t *testing.T) {
	tbl := quickTable(t, "fig8")
	if len(tbl.Series) != 2 {
		t.Fatalf("series = %d", len(tbl.Series))
	}
	// Retrieved data falls sharply with speed for both tour kinds.
	assertMonotone(t, tbl, "tram", true)
	assertMonotone(t, tbl, "walk", true)
	tram := seriesByName(t, tbl, "tram")
	if tram.Y[0] <= tram.Y[len(tram.Y)-1]*2 {
		t.Errorf("slow/fast ratio too small: %v vs %v", tram.Y[0], tram.Y[len(tram.Y)-1])
	}
}

func TestFig9aShape(t *testing.T) {
	tbl := quickTable(t, "fig9a")
	if len(tbl.Series) != 4 {
		t.Fatalf("series = %d", len(tbl.Series))
	}
	// Larger query frames retrieve more data at every speed.
	small := seriesByName(t, tbl, "query 5%")
	large := seriesByName(t, tbl, "query 20%")
	for i := range small.Y {
		if large.Y[i] < small.Y[i] {
			t.Errorf("20%% query below 5%% at speed %v", small.X[i])
		}
	}
}

func TestFig9bShape(t *testing.T) {
	tbl := quickTable(t, "fig9b")
	if len(tbl.Series) != 4 {
		t.Fatalf("series = %d", len(tbl.Series))
	}
	// Larger datasets retrieve more data at low speed.
	first, last := tbl.Series[0], tbl.Series[3]
	if last.Y[0] <= first.Y[0] {
		t.Errorf("largest dataset %v not above smallest %v", last.Y[0], first.Y[0])
	}
}

func TestFig10Shapes(t *testing.T) {
	hit := quickTable(t, "fig10a")
	if len(hit.Series) != 4 {
		t.Fatalf("fig10a series = %d", len(hit.Series))
	}
	// Hit rate grows with buffer size for the motion-aware tram series.
	ma := seriesByName(t, hit, "motion-aware/tram")
	if ma.Y[len(ma.Y)-1] < ma.Y[0] {
		t.Errorf("hit rate fell with buffer: %v", ma.Y)
	}
	// At the quick scale (2 tours) the hit-rate difference between the
	// policies is within noise; guard against motion-aware collapsing
	// rather than asserting a win (the full-scale run shows the win — see
	// EXPERIMENTS.md). The robust discriminator is utilization, asserted
	// strictly below.
	nv := seriesByName(t, hit, "naive-uniform/tram")
	if mean(ma.Y) < mean(nv.Y)-2 {
		t.Errorf("motion-aware hit rate %v well below naive %v", ma.Y, nv.Y)
	}

	util := quickTable(t, "fig10b")
	mu := seriesByName(t, util, "motion-aware/tram")
	nu := seriesByName(t, util, "naive-uniform/tram")
	// Individual points are noisy at the tightest buffers; the paper's
	// claim (3.5× on average for trams) is about the sweep average.
	if mean(mu.Y) <= mean(nu.Y) {
		t.Errorf("mean utilization: motion-aware %v not above naive %v", mean(mu.Y), mean(nu.Y))
	}
}

func TestFig12Shape(t *testing.T) {
	tbl := quickTable(t, "fig12")
	ma := seriesByName(t, tbl, "motion-aware")
	nv := seriesByName(t, tbl, "naive")
	// I/O falls with speed for the motion-aware index and the naive index
	// costs more at every speed.
	if ma.Y[0] <= ma.Y[len(ma.Y)-1] {
		t.Errorf("motion-aware io not falling: %v", ma.Y)
	}
	for i := range ma.Y {
		if nv.Y[i] < ma.Y[i] {
			t.Errorf("naive io %v below motion-aware %v at speed %v", nv.Y[i], ma.Y[i], ma.X[i])
		}
	}
}

func TestFig13Shapes(t *testing.T) {
	a := quickTable(t, "fig13a")
	ma := seriesByName(t, a, "motion-aware")
	nv := seriesByName(t, a, "naive")
	// Costs grow with query size; naive stays above.
	if ma.Y[len(ma.Y)-1] < ma.Y[0] {
		t.Errorf("io fell with query size: %v", ma.Y)
	}
	for i := range ma.Y {
		if nv.Y[i] < ma.Y[i] {
			t.Errorf("naive below motion-aware at %v%%", ma.X[i])
		}
	}

	b := quickTable(t, "fig13b")
	mb := seriesByName(t, b, "motion-aware")
	if mb.Y[len(mb.Y)-1] < mb.Y[0] {
		t.Errorf("io fell with dataset size: %v", mb.Y)
	}
}

func TestFig14Shape(t *testing.T) {
	tbl := quickTable(t, "fig14")
	if len(tbl.Series) != 4 {
		t.Fatalf("series = %d", len(tbl.Series))
	}
	ma := seriesByName(t, tbl, "motion-aware/tram")
	nv := seriesByName(t, tbl, "naive/tram")
	last := len(ma.Y) - 1
	// At top speed the motion-aware system responds far faster.
	if ma.Y[last] >= nv.Y[last] {
		t.Errorf("at speed 1.0: motion-aware %v not below naive %v", ma.Y[last], nv.Y[last])
	}
}

func TestGeneratorsComplete(t *testing.T) {
	gens := Generators()
	want := []string{"fig8", "fig9a", "fig9b", "fig10a", "fig10b", "fig11",
		"fig12", "fig13a", "fig13b", "fig14", "fig15"}
	if len(gens) != len(want) {
		t.Fatalf("%d generators", len(gens))
	}
	for i, g := range gens {
		if g.ID != want[i] {
			t.Errorf("generator %d = %s want %s", i, g.ID, want[i])
		}
	}
}
