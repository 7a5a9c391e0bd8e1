package index

// Unexported pieces the external benchmarks of this package drive
// directly.
type HitSet = hitSet

var (
	HitWords       = (*hitSet).words
	ShardedRawHits = (*Sharded).searchRaw
)
