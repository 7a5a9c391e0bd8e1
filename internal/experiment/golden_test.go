package experiment

import (
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden from this run")

// quickGenerators is every figure and ablation, in the order
// cmd/experiments -ablations prints them.
func quickGenerators() []struct {
	ID  string
	Run func(Config) *Table
} {
	return append(Generators(), AblationGenerators()...)
}

// quickTables runs every generator once at quickCfg, one per proc at a
// time (each builds its own datasets and tours, so the runs share
// nothing): the golden file and every Test*Shape read this one set.
var quickTables = sync.OnceValue(func() map[string]*Table {
	gens := quickGenerators()
	tables := make([]*Table, len(gens))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, g := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			tables[i] = g.Run(quickCfg())
			<-sem
		}()
	}
	wg.Wait()
	byID := make(map[string]*Table, len(gens))
	for i, g := range gens {
		byID[g.ID] = tables[i]
	}
	return byID
})

// quickTable returns one table of the shared quick set.
func quickTable(t *testing.T, id string) *Table {
	t.Helper()
	skipIfShort(t)
	tbl, ok := quickTables()[id]
	if !ok {
		t.Fatalf("no generator %q", id)
	}
	return tbl
}

// TestQuickGolden pins the paper's figures by value: every table's
// Format at quickCfg must match testdata/quick.golden byte for byte.
// The tables hold only simulated quantities, never wall-clock time, so
// the file is the same on every machine. A change that moves a number
// regenerates it with
//
//	go test ./internal/experiment -run Golden -update
//
// and says why.
func TestQuickGolden(t *testing.T) {
	var b strings.Builder
	for _, g := range quickGenerators() {
		b.WriteString(quickTable(t, g.ID).Format())
		b.WriteByte('\n')
	}
	path := filepath.Join("testdata", "quick.golden")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("quick tables differ from %s at line %d:\n got  %q\n want %q\n(rerun with -update if the change is intended)", path, i+1, g, w)
			}
		}
	}
}
