package index

import "slices"

// radixCutoff is the batch size below which sortIDs hands over to
// slices.Sort: a radix pass costs a 256-entry histogram whatever the
// batch, which a comparison sort of a few dozen ids undercuts. Measured
// on shuffled three-byte ids the two cross between 128 and 192.
const radixCutoff = 192

// sortIDs sorts ids ascending in place — the ordering step behind the
// "ascending ids" contract of every SearchInto. Coefficient ids are
// dense non-negative integers, so a batch is ordered by an LSD radix
// sort over only the bytes in which its ids differ (three passes for a
// store of under 2²⁴ coefficients), linear in the batch. tmp is the
// ping-pong buffer, grown on demand and retained by the caller's Cursor
// so steady-state searches allocate nothing. Small batches, and any
// batch holding a negative id (whose sign bit the unsigned byte order
// would misplace), go through slices.Sort instead.
func sortIDs(ids []int64, tmp *[]int64) {
	if len(ids) < radixCutoff {
		slices.Sort(ids)
		return
	}
	// One scan finds the bits that vary across the batch and whether any
	// id is negative.
	first := ids[0]
	var diff, sign int64
	for _, v := range ids {
		diff |= v ^ first
		sign |= v
	}
	if sign < 0 {
		slices.Sort(ids)
		return
	}
	if cap(*tmp) < len(ids) {
		*tmp = make([]int64, len(ids))
	}
	src, dst := ids, (*tmp)[:len(ids)]
	for shift := uint(0); shift < 64; shift += 8 {
		if (diff>>shift)&0xff == 0 {
			continue // every id agrees on this byte: the pass would be the identity
		}
		var next [256]int
		for _, v := range src {
			next[(v>>shift)&0xff]++
		}
		sum := 0
		for b, n := range next {
			next[b] = sum
			sum += n
		}
		for _, v := range src {
			b := (v >> shift) & 0xff
			dst[next[b]] = v
			next[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &ids[0] {
		copy(ids, src)
	}
}
