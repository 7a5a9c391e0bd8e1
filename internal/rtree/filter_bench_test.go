package rtree

import (
	"math/bits"
	"testing"
)

// portableFilter is the survivor walk's work on one node of a: the
// filter of searchSurvivors, copied without its queue and output, and
// on an internal node the containment test of its survivors.
func (a *arena) portableFilter(ni int32, ord *[MaxDims]int, q *Rect, sel []int32) (live []int32, in uint64) {
	dims, slots := a.dims, len(a.all)
	stride := 2 * dims * slots
	blk := a.bounds[int(ni)*stride:][:stride]
	n := int(a.nodes[ni].n)
	live = a.all[:n]
	for _, d := range ord[:dims] {
		if len(live) == 0 {
			break
		}
		lo, hi := blk[d*slots:][:n], blk[(dims+d)*slots:][:n]
		ql, qh := q.Lo[d], q.Hi[d]
		k := 0
		for _, i := range live {
			sel[k] = i
			c := 1
			if ql > hi[i] {
				c = 0
			}
			if lo[i] > qh {
				c = 0
			}
			k += c
		}
		live = sel[:k]
	}
	if ni >= a.leaf0 {
		return live, 0
	}
next:
	for _, i := range live {
		for _, d := range ord[:dims] {
			if !(q.Lo[d] <= blk[d*slots+int(i)] && blk[(dims+d)*slots+int(i)] <= q.Hi[d]) {
				continue next
			}
		}
		in |= 1 << i
	}
	return live, in
}

var filterSink uint64

// BenchNodeFilter times one node's filter, in ns per node, over every
// node the walks of qs read in tr: "kernel" is filterNode (where the
// AVX2 kernel runs), "portable" the survivor walk's filter. Before
// timing it checks that both select the same entries on every node.
func BenchNodeFilter(b *testing.B, tr *Tree, qs []Rect) {
	a := tr.a
	type visit struct {
		ni  int32
		q   *Rect
		ord [MaxDims]int
	}
	var visits []visit
	var cur Cursor
	for k := range qs {
		q := &qs[k]
		a.searchSurvivors(q, &cur, nil)
		for _, ni := range cur.idx {
			visits = append(visits, visit{ni: ni, q: q, ord: a.order(q)})
		}
	}
	dims, slots := a.dims, len(a.all)
	stride := 2 * dims * slots
	sel := make([]int32, slots)
	if useKernel {
		for _, v := range visits {
			hit, in := filterNode(a.bounds[int(v.ni)*stride:][:stride], slots, dims, int(a.nodes[v.ni].n), v.q)
			live, wantIn := a.portableFilter(v.ni, &v.ord, v.q, sel)
			var wantHit uint64
			for _, i := range live {
				wantHit |= 1 << i
			}
			if v.ni < a.leaf0 {
				in &= hit
			} else {
				in = 0
			}
			if hit != wantHit || in != wantIn {
				b.Fatalf("node %d: kernel %d hits / %d inside, survivor filter %d / %d",
					v.ni, bits.OnesCount64(hit), bits.OnesCount64(in), len(live), bits.OnesCount64(wantIn))
			}
		}
		b.Run("kernel", func(b *testing.B) {
			var sink uint64
			for i := 0; i < b.N; i++ {
				v := &visits[i%len(visits)]
				hit, in := filterNode(a.bounds[int(v.ni)*stride:][:stride], slots, dims, int(a.nodes[v.ni].n), v.q)
				sink += hit ^ in
			}
			filterSink = sink
		})
	}
	b.Run("portable", func(b *testing.B) {
		var sink uint64
		for i := 0; i < b.N; i++ {
			v := &visits[i%len(visits)]
			live, in := a.portableFilter(v.ni, &v.ord, v.q, sel)
			sink += uint64(len(live)) ^ in
		}
		filterSink = sink
	})
}
