//go:build amd64 && !purego

package rtree

// useKernel selects the mask walk, whose per-node filter is the AVX2
// kernel in filter_amd64.s, when the CPU and OS support AVX2; without
// it the survivor walk runs.
var useKernel = hasAVX2()

// hasAVX2 reports whether the CPU has AVX2 and the OS saves its
// registers.
func hasAVX2() bool

// filterNode tests a node's first n entries against q in every live
// dimension, four at a time. blk is the node's block of the arena
// (slots entries per row, slots a multiple of 4, dims rows of lower
// bounds then dims of upper); bit i of hit is set when entry i
// intersects q, as Rect.intersects decides, and for such an entry bit
// i of in is set when it lies inside q. n ≤ 64.
//
//go:noescape
func filterNode(blk []float64, slots, dims, n int, q *Rect) (hit, in uint64)
