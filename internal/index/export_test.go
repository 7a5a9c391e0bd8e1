package index

// Unexported pieces the external benchmarks of this package drive
// directly.
type HitSet = hitSet

var (
	OrderHits      = (*hitSet).order
	ShardedRawHits = (*Sharded).searchRaw
)
