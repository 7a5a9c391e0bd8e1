package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/index"
	"repro/internal/workload"
)

// The tests run on a city of 4×4 blocks (144 buildings), which keeps the
// whole file under a few seconds.
var (
	miniOnce  sync.Once
	miniStore *index.Store
	miniOrc   *oracle
)

func mini() (*index.Store, *oracle) {
	miniOnce.Do(func() {
		miniStore = workload.GenerateCity(workload.CitySpec{
			BlocksX: 4, BlocksY: 4, LotsPerBlock: 3, Levels: cityLevels, Seed: 1,
		})
		miniOrc = newOracle(miniStore)
	})
	return miniStore, miniOrc
}

// miniature shrinks a workload to a few short trips per client.
func miniature(name string) workloadDef {
	d := *findWorkload(name)
	switch d.Family {
	case "join":
		d.Pool, d.Warm, d.Ladder = 48, 16, 16
	case "tram":
		d.Pool, d.Warm, d.Ladder, d.Frames = 2, 1, 1, 400
	default:
		d.Pool, d.Warm, d.Ladder, d.Frames = 2, 1, 1, 60
	}
	return d
}

func TestSameSeedSameTripsAndDigest(t *testing.T) {
	store, orc := mini()
	space := store.Bounds().XY()
	for _, name := range []string{"tram.mem", "walk.mem", "join.hot"} {
		d := miniature(name)
		a, b, c := buildTrips(&d, 7, space), buildTrips(&d, 7, space), buildTrips(&d, 8, space)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different trips", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds gave the same trips", name)
		}
		da := tripsDigest(a, orc.replayAll(a, d.Warm))
		db := tripsDigest(b, orc.replayAll(b, d.Warm))
		dc := tripsDigest(c, orc.replayAll(c, d.Warm))
		if da != db {
			t.Errorf("%s: the same seed gave digests %s and %s", name, da, db)
		}
		if da == dc {
			t.Errorf("%s: different seeds gave the same digest %s", name, da)
		}
	}
}

func TestTramPagedReplaysTramMem(t *testing.T) {
	store, _ := mini()
	space := store.Bounds().XY()
	m, p := miniature("tram.mem"), miniature("tram.paged")
	if !reflect.DeepEqual(buildTrips(&m, 3, space), buildTrips(&p, 3, space)) {
		t.Error("tram.paged does not replay tram.mem's trips")
	}
}

func TestPercentile(t *testing.T) {
	s := make([]int64, 100)
	for i := range s {
		s[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {99, 99}, {99.9, 100}, {100, 100}, {1, 1}, {0.5, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile([]int64{7, 9, 11}, 50); got != 9 {
		t.Errorf("percentile({7,9,11}, 50) = %d, want 9", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil, 50) = %d, want 0", got)
	}
	if got := mean([]int64{1, 2, 6}); got != 3 {
		t.Errorf("mean({1,2,6}) = %v, want 3", got)
	}
}

func TestWindowMedians(t *testing.T) {
	// Three one-second windows. Client 0 completes 2, 4 and 2 frames in
	// them, client 1 two in each, and each has one more after the end.
	var loads [numClients]clientLoad
	loads[0].lat = []int64{10, 30, 5, 5, 5, 5, 20, 40, 999}
	loads[0].marks = []int{0, 2, 6, 8}
	loads[1].lat = []int64{20, 40, 7, 7, 30, 50, 999}
	loads[1].marks = []int{0, 2, 4, 6}
	rate, p50, p99 := windowMedians(&loads, 3*time.Second)
	// Per window: 4, 6, 4 frames; p50 20, 5, 30; p99 40, 7, 50.
	if rate != 4 || p50 != 20 || p99 != 40 {
		t.Errorf("windowMedians = %v frames/s, p50 %v, p99 %v; want 4, 20, 40", rate, p50, p99)
	}
	// A phase too short to cut is one window over every frame.
	rate, p50, _ = windowMedians(&loads, time.Second)
	if rate != 16 || p50 != 20 {
		t.Errorf("one window: %v frames/s, p50 %v; want 16, 20", rate, p50)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median({4,1,3,2}) = %v, want 2.5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	// One frame of 100 ns with children of 10, 30 and 25 ns, the last of
	// which has a 5 ns child of its own; then a lone 7 ns plan span.
	spans := []span{
		{Layer: layerFrame, ID: 1, Start: 0, End: 100},
		{Layer: layerPlan, ID: 2, Parent: 1, Start: 0, End: 10},
		{Layer: layerExecute, ID: 3, Parent: 1, Start: 10, End: 40},
		{Layer: layerEncode, ID: 4, Parent: 1, Start: 50, End: 75},
		{Layer: layerFetch, ID: 5, Parent: 4, Start: 55, End: 60},
		{Layer: layerPlan, ID: 6, Start: 200, End: 207},
	}
	want := map[string]int64{
		layerFrame: 35, layerPlan: 17, layerExecute: 30, layerEncode: 20, layerFetch: 5,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// TestMiniatures runs every workload end to end at miniature size, both
// untraced and traced, and checks that each passes its oracle check and
// exercises the mechanism it exists for.
func TestMiniatures(t *testing.T) {
	store, orc := mini()
	dir := t.TempDir()
	for i := range workloads {
		d := miniature(workloads[i].Name)
		e2e, err := runWorkload(store, orc, &d, 5, 50*time.Millisecond, false, dir)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if e2e.FailedOps != 0 || e2e.Ops == 0 {
			t.Errorf("%s: %d of %d ops failed: %s", d.Name, e2e.FailedOps, e2e.Ops, e2e.FirstError)
		}
		for _, m := range endToEnd {
			if e2e.Metrics[m.Name] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", d.Name, m.Name, e2e.Metrics[m.Name])
			}
		}
		tr, err := runWorkload(store, orc, &d, 5, 50*time.Millisecond, true, dir)
		if err != nil {
			t.Fatalf("%s traced: %v", d.Name, err)
		}
		if tr.FailedOps != 0 || tr.LadderFrames == 0 {
			t.Errorf("%s traced: %d ops failed over %d ladder frames: %s", d.Name, tr.FailedOps, tr.LadderFrames, tr.FirstError)
		}
		if tr.Digest != e2e.Digest {
			t.Errorf("%s: digest %s traced, %s untraced", d.Name, tr.Digest, e2e.Digest)
		}
		for _, m := range perLayer {
			if _, ok := tr.Metrics[m.Name]; !ok {
				t.Errorf("%s traced: no %s", d.Name, m.Name)
			}
		}
		m := tr.Metrics
		switch d.Name {
		case "join.hot":
			if m["hotcache.payload_hit_ratio"] <= 0 {
				t.Errorf("join.hot: payload_hit_ratio = %v, want > 0", m["hotcache.payload_hit_ratio"])
			}
		case "tram.paged":
			if m["pager.evictions"] <= 0 || m["pager.fault_ratio"] <= 0 {
				t.Errorf("tram.paged: evictions %v, fault ratio %v, want both > 0", m["pager.evictions"], m["pager.fault_ratio"])
			}
		default:
			if m["pager.evictions"] != 0 {
				t.Errorf("%s: %v evictions from a resident store", d.Name, m["pager.evictions"])
			}
		}
	}
	segs, _ := os.ReadDir(dir)
	if len(segs) != 0 {
		t.Errorf("runs left %d files behind in the output directory", len(segs))
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, which the driver reads, in step
// with the metric and workload tables the program prints from.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark's directory: %v", err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", b.Paths)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", b.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end = %+v, the program has %+v", b.EndToEnd, endToEnd)
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics, the program has %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if p := perLayer[i]; m.Name != p.Name || m.Unit != p.Unit || m.Better != p.Better {
			t.Errorf("per_layer[%d] = %+v, the program has %+v", i, m, p)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d = %+v, the program has %q: %q", i, w, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, at most 200 allowed", w.Name, len(w.Why))
		}
	}
}
