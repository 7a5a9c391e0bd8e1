//go:build !amd64 || purego

package rtree

// useKernel is false where there is no AVX2 kernel: search runs the
// survivor walk.
const useKernel = false

// filterNode is the AVX2 kernel's signature, so the mask walk compiles
// everywhere; it is never called without the kernel.
func filterNode(blk []float64, slots, dims, n int, q *Rect) (hit, in uint64) {
	panic("rtree: filterNode needs the AVX2 kernel")
}
