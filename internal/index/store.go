// Package index implements the access methods of paper §VI over
// wavelet-decomposed 3D objects: the motion-aware index (an R*-tree over
// support-region MBBs extended with the coefficient-value dimension), the
// naive point index it is compared against (which must re-execute enlarged
// queries to pull in neighboring vertices), and the whole-object index the
// non-multiresolution baseline system of §VII-E uses. All three report
// node I/O per query.
package index

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/wavelet"
)

// Store is the server-side collection of decomposed objects. It assigns
// every coefficient a dense global id: the object's offset plus the
// coefficient's vertex id. (Decompose assigns vertex ids sequentially, so
// Coeffs[i].Vertex == i; Store relies on that.) The coefficients must not
// change after NewStore: the store encodes their wire records once, there.
type Store struct {
	Objects   []*wavelet.Decomposition
	offsets   []int64
	total     int64
	bounds    geom.Rect3  // union of the objects' boxes, fixed at construction
	neighbors [][][]int32 // final-mesh adjacency per object; built on demand
	// wire holds every coefficient's wire record, id-indexed: id's
	// record is wire[id*WireBytes:][:WireBytes]. It costs WireBytes per
	// coefficient beside the slabs and makes a frame's encode a copy.
	wire []byte
}

// NewStore builds a store over the given decompositions and encodes
// their wire records. Object ids must equal their slice positions;
// Decompose output is verified to satisfy the dense-vertex-id assumption.
func NewStore(objects []*wavelet.Decomposition) *Store {
	s := &Store{Objects: objects, offsets: make([]int64, len(objects))}
	for i, d := range objects {
		if d.Object != int32(i) {
			panic(fmt.Sprintf("index: object %d stored at position %d", d.Object, i))
		}
		for j := range d.Coeffs {
			if d.Coeffs[j].Vertex != int32(j) {
				panic(fmt.Sprintf("index: object %d coefficient %d has vertex %d",
					i, j, d.Coeffs[j].Vertex))
			}
		}
		s.offsets[i] = s.total
		s.total += int64(len(d.Coeffs))
		if i == 0 {
			s.bounds = d.Bounds()
		} else {
			s.bounds = s.bounds.Union(d.Bounds())
		}
	}
	s.wire = make([]byte, 0, s.total*wavelet.WireBytes)
	for _, d := range objects {
		for j := range d.Coeffs {
			w := d.Coeffs[j].Wire()
			s.wire = wavelet.AppendWire(s.wire, &w)
		}
	}
	s.neighbors = make([][][]int32, len(objects))
	return s
}

// NumObjects returns the number of stored objects.
func (s *Store) NumObjects() int { return len(s.Objects) }

// BaseVerts returns the vertex count of the shared base mesh (0 for an
// empty store). Clients need it to set up reconstructors.
func (s *Store) BaseVerts() int {
	if len(s.Objects) == 0 {
		return 0
	}
	return s.Objects[0].Base.NumVerts()
}

// NumCoeffs returns the total coefficient count across all objects.
func (s *Store) NumCoeffs() int64 { return s.total }

// SizeBytes returns the total serialized payload of the store — the
// "data set size" of the paper's experiments (20–80 MB).
func (s *Store) SizeBytes() int64 { return s.total * wavelet.WireBytes }

// ID returns the global id of a coefficient.
func (s *Store) ID(object, vertex int32) int64 {
	return s.offsets[object] + int64(vertex)
}

// Coeff resolves a global id. The store is always resident, so the
// error is always nil (see the CoefficientSource failure contract).
func (s *Store) Coeff(id int64) (*wavelet.Coefficient, error) {
	obj := s.objectOf(id)
	return &s.Objects[obj].Coeffs[id-s.offsets[obj]], nil
}

// scan walks the object slabs in id order (see CoefficientSource).
func (s *Store) scan(fn func(id int64, c *wavelet.Coefficient)) {
	for i, d := range s.Objects {
		for j := range d.Coeffs {
			fn(s.offsets[i]+int64(j), &d.Coeffs[j])
		}
	}
}

// NewPins returns a pin set over the store. It pins nothing — the slabs
// are always resident — but remembers the last object it resolved, so
// ids read in ascending order cost a range check each instead of
// objectOf's binary search.
func (s *Store) NewPins() *Pins { return &Pins{store: s, obj: -1} }

// seekObject points p at the object owning id: the one after the
// remembered object when an ascending read crosses into it, else the
// one objectOf finds.
func (p *Pins) seekObject(id int64) {
	s := p.store
	obj := p.obj + 1
	if obj >= len(s.offsets) || id < s.offsets[obj] || id-s.offsets[obj] >= int64(len(s.Objects[obj].Coeffs)) {
		obj = s.objectOf(id)
	}
	p.obj, p.lo, p.slab = obj, s.offsets[obj], s.Objects[obj].Coeffs
	p.hi = p.lo + int64(len(p.slab))
}

// objectOf finds the object owning a global id by binary search over the
// offsets. Out-of-range ids panic descriptively (an id can only come
// from this store's own ID/Search output, so a bad one is caller
// corruption — fail loudly rather than crash on a slice bound or, for a
// negative id on a multi-object store, silently resolve to object 0).
func (s *Store) objectOf(id int64) int {
	s.checkID(id)
	lo, hi := 0, len(s.offsets)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if s.offsets[mid] <= id {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// checkID panics descriptively on an out-of-range id (see objectOf).
func (s *Store) checkID(id int64) {
	if id < 0 || id >= s.total {
		panic(fmt.Sprintf("index: coefficient id %d out of range [0, %d)", id, s.total))
	}
}

// EnsureNeighbors computes and caches the final-mesh vertex adjacency for
// every object. The naive index needs it; it must run before DropFinal.
// It mutates the store and must complete before concurrent readers
// (Neighbors, and therefore Naive.Search) start — NewNaive calls it at
// build time, which satisfies the Index concurrency contract.
func (s *Store) EnsureNeighbors() {
	for i, d := range s.Objects {
		if s.neighbors[i] != nil {
			continue
		}
		if d.Final == nil {
			panic(fmt.Sprintf("index: object %d final mesh dropped before EnsureNeighbors", i))
		}
		s.neighbors[i] = d.Final.VertexNeighbors()
	}
}

// Neighbors returns the final-mesh neighbor vertex ids of one coefficient.
// EnsureNeighbors must have run.
func (s *Store) Neighbors(object, vertex int32) []int32 {
	nb := s.neighbors[object]
	if nb == nil {
		panic("index: EnsureNeighbors not called")
	}
	return nb[vertex]
}

// DropFinals releases every object's refined mesh (after neighbor lists
// have been built if the naive index is in use).
func (s *Store) DropFinals() {
	for _, d := range s.Objects {
		d.DropFinal()
	}
}

// Bounds returns the bounding box of all objects (every hello reads it).
func (s *Store) Bounds() geom.Rect3 { return s.bounds }

// Layout selects which dimensions the index rectangles use. The paper
// designs a 4D (x, y, z, w) index in §VI-B but evaluates a 3D (x, y, w)
// R*-tree in §VII-D; both are supported.
type Layout int

const (
	// XYW indexes ground-plane extent plus coefficient value (3D).
	XYW Layout = iota
	// XYZW indexes full 3D extent plus coefficient value (4D).
	XYZW
)

func (l Layout) String() string {
	if l == XYW {
		return "xyw"
	}
	return "xyzw"
}

// Dims returns the R-tree dimensionality of the layout.
func (l Layout) Dims() int {
	if l == XYW {
		return 3
	}
	return 4
}

// supportRect converts a coefficient's support-region MBB and value into
// an index rectangle.
func (l Layout) supportRect(c *wavelet.Coefficient) rtree.Rect {
	if l == XYW {
		return rtree.FromXYW(c.Support.XY(), c.Value, c.Value)
	}
	return rtree.From3D(c.Support, c.Value, c.Value)
}

// pointRect converts a coefficient's vertex position and value into a
// degenerate index rectangle (the naive storage format).
func (l Layout) pointRect(c *wavelet.Coefficient) rtree.Rect {
	if l == XYW {
		return rtree.Point(c.Pos.X, c.Pos.Y, c.Value)
	}
	return rtree.Point(c.Pos.X, c.Pos.Y, c.Pos.Z, c.Value)
}

// Query is the continuous window query of the paper: a region of interest
// and the value band [WMin, WMax] of the coefficients needed for the
// target resolution. WMin = 0, WMax = 1 retrieves the finest resolution;
// WMin = WMax = 1 the coarsest (§VI-B).
type Query struct {
	Region geom.Rect2 // ground-plane window
	ZMin   float64    // height band, used by the XYZW layout
	ZMax   float64
	WMin   float64
	WMax   float64
}

// queryRect converts the query into an index rectangle. ok is false for a
// provably empty query — an inverted region, value band, or (for XYZW)
// height band — which must not be searched: an inverted interval does not
// encode "no points" in rtree.Rect, and feeding one to Search can return
// spurious hits (intersects() only rejects on Lo > other.Hi per axis,
// which an inverted query rectangle can fail to trigger against items it
// does not contain). Degenerate-but-valid windows (a point-sized region,
// or WMin == WMax) are NOT empty: closed-interval intersection must still
// return every coefficient whose support contains the point.
func (l Layout) queryRect(q Query) (r rtree.Rect, ok bool) {
	if q.Region.Max.X < q.Region.Min.X || q.Region.Max.Y < q.Region.Min.Y || q.WMin > q.WMax {
		return r, false
	}
	if l == XYW {
		return rtree.FromXYW(q.Region, q.WMin, q.WMax), true
	}
	if q.ZMax < q.ZMin {
		return r, false
	}
	return rtree.From3D(geom.Prism(q.Region, q.ZMin, q.ZMax), q.WMin, q.WMax), true
}

// Index is a queryable access method over a CoefficientSource. Search
// returns the global coefficient ids satisfying the query and the number
// of index nodes (pages) read.
//
// Determinism contract: Search returns each matching id once, in
// ascending global-id order (the retrieval merge walks them a 64-id word
// at a time and relies on both). Tree traversal order is an
// implementation detail (it differs between a bulk-loaded and an
// incrementally grown tree, and between shards of a partitioned index);
// ordering pins the response bytes of every access method to the query
// alone, so a sharded index is byte-identical to the serial motion-aware
// oracle and cross-implementation property tests can compare slices
// directly.
//
// Concurrency contract: after construction (and, for Naive, the
// EnsureNeighbors call its constructor performs), Search must be safe
// for any number of concurrent callers — every implementation in this
// package keeps its search state allocation-local and counts I/O with
// atomics. No index changes after its build.
type Index interface {
	Name() string
	Search(q Query) (ids []int64, io int64)
	Len() int
}
