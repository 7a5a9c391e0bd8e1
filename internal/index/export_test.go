package index

// Unexported pieces the external benchmarks of this package drive
// directly.
type HitSet = hitSet

var (
	HitWords       = (*hitSet).words
	ShardedRawHits = (*Sharded).searchRaw
)

// SlotOf returns the record position of coefficient id in a paged
// store's band-major layout.
func SlotOf(ps *PagedStore, id int64) int64 { return int64(ps.slots[id]) }
