package retrieval

import "math/bits"

const (
	// deliveredPageBits sizes a page of the delivered set: 4 096 ids in
	// 64 words, 512 bytes.
	deliveredPageBits  = 12
	deliveredPageWords = 1 << deliveredPageBits / 64
)

type deliveredPage [deliveredPageWords]uint64

// Delivered is a set of coefficient ids, the per-client record of what
// has crossed the link. Coefficient ids are dense — exactly
// [0, NumCoeffs) of the store — so the set is a paged bitset: a spine of
// one pointer per 4 096 ids of id space, each page allocated when an id
// in it is first added. A frame's ids cluster on the few pages of the
// objects in its window, so membership costs one bit test and a session
// that saw a fraction of the city pays for that fraction.
//
// The zero value is an empty set ready to use. Negative ids are never
// members: Add and Del ignore them and Has reports false. A Delivered
// is not safe for concurrent use — like the session that owns it.
type Delivered struct {
	pages []*deliveredPage
	n     int
}

// Has reports whether id is in the set.
func (d *Delivered) Has(id int64) bool {
	return d.word(id>>6)&(1<<(uint(id)&63)) != 0
}

// Add inserts id, growing the spine and allocating the id's page when
// this is the first id to land there. It reports whether id was new to
// the set.
func (d *Delivered) Add(id int64) bool {
	return d.or(id>>6, 1<<(uint(id)&63)) == 1
}

// word returns word w of the set — the bits of ids [64w, 64w+64) — and 0
// for a word on no page. It never allocates.
func (d *Delivered) word(w int64) uint64 {
	p := w >> (deliveredPageBits - 6)
	if w < 0 || p >= int64(len(d.pages)) || d.pages[p] == nil {
		return 0
	}
	return d.pages[p][w%deliveredPageWords]
}

// or adds the ids of mask m to word w, allocating the word's page if it
// has none, and returns how many of them were new to the set. Negative
// words hold negative ids, which are never members: or ignores them.
func (d *Delivered) or(w int64, m uint64) int {
	if w < 0 || m == 0 {
		return 0
	}
	p := int(w >> (deliveredPageBits - 6))
	if p >= len(d.pages) {
		d.pages = append(d.pages, make([]*deliveredPage, p+1-len(d.pages))...)
	}
	pg := d.pages[p]
	if pg == nil {
		pg = new(deliveredPage)
		d.pages[p] = pg
	}
	i := w % deliveredPageWords
	n := bits.OnesCount64(m &^ pg[i])
	pg[i] |= m
	d.n += n
	return n
}

// Del removes id; an absent id is a no-op. Pages are kept: ids are
// removed to be re-delivered (resume rollback), so the page is about to
// be needed again.
func (d *Delivered) Del(id int64) {
	w, m := id>>6, uint64(1)<<(uint(id)&63)
	if d.word(w)&m != 0 {
		d.pages[w>>(deliveredPageBits-6)][w%deliveredPageWords] &^= m
		d.n--
	}
}

// Len returns the number of ids in the set.
func (d *Delivered) Len() int { return d.n }

// IDs returns the members in ascending order, freshly allocated.
func (d *Delivered) IDs() []int64 {
	ids := make([]int64, 0, d.n)
	for p, pg := range d.pages {
		if pg == nil {
			continue
		}
		for w, word := range pg {
			base := int64(p)<<deliveredPageBits | int64(w)<<6
			for ; word != 0; word &= word - 1 {
				ids = append(ids, base|int64(bits.TrailingZeros64(word)))
			}
		}
	}
	return ids
}
