package rtree

import "fmt"

// Variant selects the insertion/split algorithm of InsertLoad.
type Variant int

const (
	// RStar is the R*-tree of Beckmann et al.: topological splits chosen by
	// margin/overlap and forced reinsertion on overflow. The paper's
	// motion-aware index uses an R*-tree with 4 KB pages and fanout 20.
	RStar Variant = iota
	// Quadratic is Guttman's original R-tree with quadratic split and no
	// reinsertion, kept as an ablation baseline.
	Quadratic
)

func (v Variant) String() string {
	switch v {
	case RStar:
		return "R*-tree"
	case Quadratic:
		return "R-tree(quadratic)"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Config parameterizes a Tree.
type Config struct {
	Dims       int     // dimensionality (1..MaxDims)
	MaxEntries int     // node capacity; paper: 20
	MinEntries int     // minimum fill; 0 → 40% of MaxEntries
	Variant    Variant // InsertLoad's split strategy
}

// DefaultConfig mirrors the paper's experimental setup (§VII-D): page size
// 4 KB, node capacity 20, R*-tree.
func DefaultConfig(dims int) Config {
	return Config{Dims: dims, MaxEntries: 20, Variant: RStar}
}

// normalized returns cfg with MinEntries filled in. An invalid
// configuration panics: index parameters are experiment constants, not
// runtime input.
func (cfg Config) normalized() Config {
	if cfg.Dims < 1 || cfg.Dims > MaxDims {
		panic(fmt.Sprintf("rtree: dims %d out of range", cfg.Dims))
	}
	if cfg.MaxEntries < 4 || cfg.MaxEntries > 64 {
		panic("rtree: MaxEntries must be 4–64") // the walk's masks hold 64 entries
	}
	if cfg.MinEntries == 0 {
		cfg.MinEntries = cfg.MaxEntries * 2 / 5 // 40%, the R* recommendation
	}
	if cfg.MinEntries < 1 || cfg.MinEntries > cfg.MaxEntries/2 {
		panic(fmt.Sprintf("rtree: MinEntries %d invalid for MaxEntries %d",
			cfg.MinEntries, cfg.MaxEntries))
	}
	return cfg
}

// Tree is an immutable in-memory R-tree over int64 payloads: the packed
// arena SearchInto walks. BulkLoad and InsertLoad build one; any number
// of concurrent searches may read it.
type Tree struct {
	cfg    Config
	height int // leaf level = 1, root level = height
	size   int
	nodes  int // node (page) count
	a      *arena
}

// Len returns the number of stored items.
func (t *Tree) Len() int { return t.size }

// Height returns the tree height (1 for a leaf-only tree).
func (t *Tree) Height() int { return t.height }

// Config returns the tree's configuration.
func (t *Tree) Config() Config { return t.cfg }

// NumNodes returns the total number of nodes (pages) in the tree.
func (t *Tree) NumNodes() int { return t.nodes }
