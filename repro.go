// Package repro is a from-scratch Go reproduction of "A Motion-Aware
// Approach to Continuous Retrieval of 3D Objects" (Ali, Zhang, Tanin,
// Kulik — ICDE 2008): wavelet-based multiresolution 3D objects, the
// speed-aware incremental retrieval protocol (Algorithm 1), the
// state-estimation prefetching buffer manager, and the support-region
// (x, y, w) R*-tree index — plus every baseline the paper compares
// against and a harness regenerating all of its evaluation figures.
//
// This file is the public facade: it re-exports the user-facing pieces of
// the internal packages so downstream code can depend on a single import.
// The subsystems remain available directly under repro/internal/... for
// code living in this module:
//
//	geom       vectors, rectangles, grids, region difference
//	mesh       triangle meshes, 1→4 subdivision, procedural buildings
//	wavelet    multiresolution decomposition and reconstruction
//	rtree      R*-tree / Guttman R-tree with node-I/O accounting
//	index      motion-aware, naive, and whole-object access methods
//	motion     tram/pedestrian tours, RLS/linear/Kalman prediction
//	pmesh      progressive meshes (the §II compactness baseline)
//	buffer     eq.(2) allocation, prefetching managers, LRU
//	netsim     the 256 kbps / 200 ms wireless link model
//	retrieval  Algorithm 1 client and filtering server
//	proto      the binary TCP protocol
//	workload   dataset generation (uniform / Zipf)
//	core       assembled motion-aware and naive systems
//	experiment figure generators (Figs. 8–15)
package repro

import (
	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/geom"
	"repro/internal/motion"
	"repro/internal/netsim"
	"repro/internal/retrieval"
	"repro/internal/workload"
)

// Geometry.
type (
	// Vec2 is a point in the ground plane.
	Vec2 = geom.Vec2
	// Rect2 is an axis-aligned window in the ground plane.
	Rect2 = geom.Rect2
)

// V2 constructs a Vec2.
func V2(x, y float64) Vec2 { return geom.V2(x, y) }

// R2 constructs a Rect2 from two corners.
func R2(x0, y0, x1, y1 float64) Rect2 { return geom.R2(x0, y0, x1, y1) }

// Datasets.
type (
	// DatasetSpec parameterizes dataset generation.
	DatasetSpec = workload.Spec
	// Dataset is a generated multiresolution object collection.
	Dataset = workload.Dataset
	// Placement selects uniform or Zipfian object distribution.
	Placement = workload.Placement
)

// Placement values.
const (
	Uniform = workload.Uniform
	Zipf    = workload.Zipf
)

// GenerateDataset builds a reproducible city dataset.
func GenerateDataset(spec DatasetSpec) *Dataset { return workload.Generate(spec) }

// Motion.
type (
	// Tour is one client trajectory.
	Tour = motion.Tour
	// TourKind is tram or pedestrian.
	TourKind = motion.TourKind
	// TourSpec parameterizes tour generation.
	TourSpec = motion.TourSpec
	// Predictor is the RLS/Kalman-style motion estimator of §V-B.
	Predictor = motion.Predictor
)

// Tour kinds.
const (
	Tram       = motion.Tram
	Pedestrian = motion.Pedestrian
)

// Tours generates n reproducible tours.
func Tours(kind TourKind, spec TourSpec, n int, seed int64) []*Tour {
	return motion.Tours(kind, spec, n, seed)
}

// NewPredictor creates a motion predictor over the h most recent
// displacements.
func NewPredictor(h int) *Predictor { return motion.NewPredictor(h) }

// Estimator is the prediction interface shared by the RLS predictor, the
// constant-velocity baseline, and the Kalman filter.
type Estimator = motion.Estimator

// NewLinearPredictor creates the constant-velocity baseline estimator.
func NewLinearPredictor() Estimator { return motion.NewLinearPredictor() }

// NewKalmanPredictor creates a constant-velocity Kalman filter with the
// given process and measurement noise (zeros select defaults).
func NewKalmanPredictor(processNoise, measurementNoise float64) Estimator {
	return motion.NewKalmanPredictor(processNoise, measurementNoise)
}

// Frustum is a directional view in the ground plane.
type Frustum = geom.Frustum

// NewFrustum builds a view frustum from an apex, facing angle, field of
// view, and range.
func NewFrustum(apex Vec2, facing, fov, rng float64) Frustum {
	return geom.NewFrustum(apex, facing, fov, rng)
}

// Systems.
type (
	// SystemConfig parameterizes an end-to-end system.
	SystemConfig = core.Config
	// System is a runnable client/server configuration.
	System = core.System
	// SystemKind selects the motion-aware system or the naive baseline.
	SystemKind = core.SystemKind
	// TourStats aggregates one tour's measurements.
	TourStats = core.TourStats
	// Link models the wireless connection.
	Link = netsim.Link
	// BufferPolicy selects the prefetching strategy.
	BufferPolicy = buffer.Policy
	// MapSpeedToResolution converts speed into the minimum coefficient
	// value worth retrieving.
	MapSpeedToResolution = retrieval.MapSpeedToResolution
)

// System kinds and buffer policies.
const (
	MotionAwareSystem = core.MotionAwareSystem
	NaiveSystem       = core.NaiveSystem

	MotionAwareBuffering = buffer.MotionAware
	NaiveBuffering       = buffer.NaiveUniform
)

// NewSystem assembles a system (index construction included).
func NewSystem(cfg SystemConfig) *System { return core.NewSystem(cfg) }

// DefaultLink returns the paper's 256 kbps / 200 ms wireless link.
func DefaultLink() Link { return netsim.DefaultLink() }

// Experiments.
type (
	// ExperimentConfig scales the figure harness.
	ExperimentConfig = experiment.Config
	// FigureTable is one regenerated figure.
	FigureTable = experiment.Table
)

// RunAllFigures regenerates every evaluation figure of the paper.
func RunAllFigures(cfg ExperimentConfig) []*FigureTable { return experiment.All(cfg) }

// Figure generators, paper order.
var (
	Fig8   = experiment.Fig8
	Fig9a  = experiment.Fig9a
	Fig9b  = experiment.Fig9b
	Fig10a = experiment.Fig10a
	Fig10b = experiment.Fig10b
	Fig11  = experiment.Fig11
	Fig12  = experiment.Fig12
	Fig13a = experiment.Fig13a
	Fig13b = experiment.Fig13b
	Fig14  = experiment.Fig14
	Fig15  = experiment.Fig15
)
