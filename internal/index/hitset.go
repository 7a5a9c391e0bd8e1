package index

import (
	"math/bits"
	"slices"
)

const (
	// hitPageBits sizes a page of the hit set: 4 096 ids in 64 words, so
	// one word of the page header says which of its words hold a hit.
	hitPageBits  = 12
	hitPageWords = 1 << hitPageBits / 64

	// hitSortCutoff is the batch size below which words hands over to
	// slices.Sort: a bitmap pass costs a page per distinct page and a
	// scan of the touched-page bitmap whatever the batch, which an
	// insertion sort of a dozen ids undercuts. On prefixes of the
	// benchmark city's tram hits the two cross between 12 and 16 ids; on
	// uniform random ids, the bitmap's worst case, between 24 and 32.
	hitSortCutoff = 16
)

// hitPage is one page of the hit set: the bits of 4 096 consecutive ids
// and a mask of which of its 64 words are nonzero.
type hitPage struct {
	used  uint64
	words [hitPageWords]uint64
}

// Word is one 64-id word of a search result: bit b of Bits is set when
// id 64·W+b matched. A search returns its words non-empty and in
// ascending W order, so they carry the same set in the same order as its
// ascending ids, in one 16-byte word per up to 64 of them.
type Word struct {
	W    int64
	Bits uint64
}

// AppendIDs appends the ids of words to buf, in the words' order and
// ascending within each word, and returns the extended buffer.
func AppendIDs(buf []int64, words []Word) []int64 {
	for _, w := range words {
		base := w.W << 6
		for b := w.Bits; b != 0; b &= b - 1 {
			buf = append(buf, base|int64(bits.TrailingZeros64(b)))
		}
	}
	return buf
}

// AppendWords appends ascending ids (duplicates allowed) to out as words
// and returns the extended buffer. A word already in out is never
// extended: the ids' words start after it.
func AppendWords(out []Word, ids []int64) []Word {
	start := len(out)
	for _, id := range ids {
		w, bit := id>>6, uint64(1)<<(uint(id)&63)
		if n := len(out) - 1; n >= start && out[n].W == w {
			out[n].Bits |= bit
			continue
		}
		out = append(out, Word{W: w, Bits: bit})
	}
	return out
}

// hitSet is the ordering step behind the "ascending ids" contract of
// every search. Coefficient ids are dense non-negative integers, so a
// batch of raw R*-tree hits is ordered by setting one bit per id in a
// paged bitmap and reading its nonzero words back in ascending order:
// one pass over the batch to set, one over the touched words to read
// back — no comparison, and the result leaves as the words it was set
// in. The pages are the cursor's: the drain zeroes each page as it reads
// it and puts it back on a free list, so a warm cursor orders without
// allocating. A hitSet is not safe for concurrent use.
type hitSet struct {
	// spine[p] is the page of ids [p<<hitPageBits, (p+1)<<hitPageBits),
	// nil when the batch has no hit there. It grows to the highest page a
	// batch touched and is kept.
	spine []*hitPage
	// touched has bit p set exactly while spine[p] is non-nil, so the
	// drain finds the touched pages in ascending order without sorting.
	touched []uint64
	free    []*hitPage
}

// hitSpineFloor is the spine length (in pages, 2²⁶ ids) a hit set may
// grow to whatever the batch size; past it the spine may only cover as
// many pages as the batch has ids.
const hitSpineFloor = 1 << 14

// words appends the set of ids (any order, duplicates allowed) to out as
// ascending words and returns the extended buffer; ids is scratch and is
// left reordered. Batches below hitSortCutoff go through slices.Sort,
// and so do batches holding a negative id or an id whose page lies past
// both hitSpineFloor and the batch size: those would grow the spine past
// the batch, where a comparison sort is cheaper than the pages.
func (h *hitSet) words(ids []int64, out []Word) []Word {
	if len(ids) < hitSortCutoff {
		return AppendWords(out, sortCompact(ids))
	}
	for _, v := range ids {
		p := uint64(v) >> hitPageBits // a negative id maps past any spine
		if p >= uint64(len(h.spine)) && !h.grow(p, len(ids)) {
			h.drain(out) // empties the set; what it appends past out is dropped
			return AppendWords(out, sortCompact(ids))
		}
		pg := h.spine[p]
		if pg == nil {
			pg = h.page()
			h.spine[p] = pg
			h.touched[p>>6] |= 1 << (p & 63)
		}
		w := uint(v>>6) % hitPageWords
		pg.used |= 1 << w
		pg.words[w] |= 1 << (uint(v) & 63)
	}
	return h.drain(out)
}

// grow extends the spine to cover page p, unless that would take it past
// hitSpineFloor and past n pages; it reports whether p is covered.
func (h *hitSet) grow(p uint64, n int) bool {
	if p >= max(hitSpineFloor, uint64(n)) {
		return false
	}
	spine := make([]*hitPage, min(max(p+1, 2*uint64(len(h.spine))), max(hitSpineFloor, uint64(n))))
	copy(spine, h.spine)
	touched := make([]uint64, (len(spine)+63)/64)
	copy(touched, h.touched)
	h.spine, h.touched = spine, touched
	return true
}

// drain empties the set, appending its nonzero words to out in ascending
// order, and returns out. Every page goes back on the free list zeroed.
func (h *hitSet) drain(out []Word) []Word {
	for tw, t := range h.touched {
		for ; t != 0; t &= t - 1 {
			p := tw<<6 | bits.TrailingZeros64(t)
			pg := h.spine[p]
			for u := pg.used; u != 0; u &= u - 1 {
				w := bits.TrailingZeros64(u)
				out = append(out, Word{W: int64(p)<<(hitPageBits-6) | int64(w), Bits: pg.words[w]})
				pg.words[w] = 0
			}
			pg.used = 0
			h.spine[p] = nil
			h.free = append(h.free, pg)
		}
		h.touched[tw] = 0
	}
	return out
}

// page returns a zeroed page, recycled when one is free.
func (h *hitSet) page() *hitPage {
	if n := len(h.free); n > 0 {
		pg := h.free[n-1]
		h.free = h.free[:n-1]
		return pg
	}
	return new(hitPage)
}

// sortCompact is words' comparison-sort path.
func sortCompact(ids []int64) []int64 {
	slices.Sort(ids)
	return slices.Compact(ids)
}
