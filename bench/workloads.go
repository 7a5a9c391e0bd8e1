package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/fnv"
	"math"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/motion"
	"repro/internal/workload"
)

// numClients is the closed loop's size: one goroutine and one connection
// per client, zero think time. It equals the core count of the box the
// bounds were fixed on, so client and server goroutines already contend
// for every core; more clients would measure the scheduler, not the
// stack.
const numClients = 2

// windowFrac is the query window's side as a share of the space width;
// walkWindowFrac is walk.mem's wider one.
const (
	windowFrac     = 0.10
	walkWindowFrac = 0.30
)

// citySpec is the one city every workload serves: 16×16 blocks of 3² lots
// at J=3 — 2 304 buildings, 594 432 coefficients, 76 MB of 128-byte
// records. The city is the data set the server is deployed with and is
// the same in every run; the run's seed draws the traffic. (Cities of
// different seeds differ by a fifth in how many coefficients pass a
// cutoff, which would drown every bound below in input noise.)
var citySpec = workload.CitySpec{BlocksX: 16, BlocksY: 16, LotsPerBlock: 3, Levels: cityLevels, Seed: 1}

const cityLevels = 3

// frame is one window query of a tour: the window and the normalized
// speed that sets its resolution cutoff.
type frame struct {
	Q     geom.Rect2
	Speed float64
}

// trip is one client visit: dial, these frames in order, bye.
type trip []frame

// workloadDef names one traffic mix. The server configuration is the same
// for all of them; only the trips and, for Paged, the store's size
// relative to its page cache differ.
type workloadDef struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json
	// carries the same text).
	Why string
	// Family keys the trip generator's seed, so tram.mem and tram.paged
	// replay byte-for-byte the same trips.
	Family string
	// Paged serves from index.PagedStore with a page cache of 1/16 of the
	// payload instead of the resident index.Store.
	Paged bool
	// Pool is the number of distinct trips per client; the timed phase
	// cycles through them. Warm is how many of them each client first
	// runs untimed, with the full end-state check, and Ladder how many the
	// traced run replays. Frames is a trip's length.
	Pool, Warm, Ladder, Frames int
	gen                        func(rng *rand.Rand, space geom.Rect2, lm []geom.Vec2, frames int) trip
}

var workloads = []workloadDef{
	{
		Name:   "tram.mem",
		Why:    "small incremental slivers that never repeat: fixed per-frame cost (framing, syscalls, 4-shard descent, cache and coalescer look-ups that miss) dominates",
		Family: "tram", Pool: 64, Warm: 1, Ladder: 4, Frames: 2000, gen: tramTrip,
	},
	{
		Name:   "tram.paged",
		Why:    "the same trips as tram.mem from a paged store with a cache of 1/16 of the payload: revisited streets fault and evict, so the pager does the extra work",
		Family: "tram", Paged: true, Pool: 64, Warm: 1, Ladder: 4, Frames: 2000, gen: tramTrip,
	},
	{
		Name:   "walk.mem",
		Why:    "pedestrian trips with a wide window at a fine cutoff, 8x or more the bytes per frame of tram.mem: fetch, encode, socket write, decode and reconstruction carry 9x tram.mem's work per frame",
		Family: "walk", Pool: 64, Warm: 2, Ladder: 16, Frames: 200, gen: walkTrip,
	},
	{
		Name:   "join.hot",
		Why:    "arrival storm: every 8 frames a new connection fetches a whole window at one of 8 Zipf-chosen landmarks, which the hot cache answers by payload replay",
		Family: "join", Pool: 512, Warm: 64, Ladder: 128, Frames: 8, gen: joinTrip,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

const (
	tramSpeed = 0.8
	// A pedestrian's frames are slivers too; what makes walk.mem heavy is a
	// wide window at a fine cutoff over a short trip, so the wholesale
	// first frame and the detail bands fetched at every pause weigh in.
	walkSpeed = 0.2
	// joinLandmarks and joinZipf shape where the crowd arrives.
	joinLandmarks = 8
	joinZipf      = 1.3
)

// joinSpeeds are the two speeds (resolution cutoffs) arrivals come in at,
// so each landmark has two distinct wholesale queries.
var joinSpeeds = [2]float64{0.35, 0.6}

func tourTrip(kind motion.TourKind, steps int, speed, window float64, rng *rand.Rand, space geom.Rect2) trip {
	tour := motion.NewTour(kind, motion.TourSpec{Space: space, Steps: steps, Speed: speed}, rng)
	side := window * space.Width()
	t := make(trip, tour.Len())
	for i, pos := range tour.Pos {
		t[i] = frame{Q: geom.RectAround(pos, side), Speed: tour.SpeedAt(i)}
	}
	return t
}

func tramTrip(rng *rand.Rand, space geom.Rect2, _ []geom.Vec2, frames int) trip {
	return tourTrip(motion.Tram, frames, tramSpeed, windowFrac, rng, space)
}

func walkTrip(rng *rand.Rand, space geom.Rect2, _ []geom.Vec2, frames int) trip {
	return tourTrip(motion.Pedestrian, frames, walkSpeed, walkWindowFrac, rng, space)
}

// joinTrip is one arrival: a wholesale window centred exactly on a
// landmark — the same query floats for every arrival at that landmark and
// speed, which is what lets the hot cache replay it — then a short walk
// away in a trip-seeded direction.
func joinTrip(rng *rand.Rand, space geom.Rect2, lm []geom.Vec2, frames int) trip {
	z := rand.NewZipf(rng, joinZipf, 1, uint64(len(lm)-1))
	pos := lm[z.Uint64()]
	speed := joinSpeeds[rng.Intn(len(joinSpeeds))]
	side := windowFrac * space.Width()
	heading := rng.Float64() * 2 * math.Pi
	step := geom.V2(math.Cos(heading), math.Sin(heading)).Scale(speed * 0.02 * space.Width())
	t := make(trip, 0, frames)
	for i := 0; i < frames; i++ {
		t = append(t, frame{Q: geom.RectAround(pos, side), Speed: speed})
		pos = pos.Add(step)
	}
	return t
}

// tripSeed folds the run seed, the workload family, the client and the
// trip number into one rng seed (splitmix finalizer), so trips are
// independent of each other and of the pool size.
func tripSeed(seed int64, family string, client, k int) int64 {
	h := fnv.New64a()
	h.Write([]byte(family))
	z := uint64(seed) ^ h.Sum64()
	z += uint64(client+1)*0x9E3779B97F4A7C15 + uint64(k+1)*0xD1B54A32D192ED03
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// buildTrips generates every client's trip pool for a workload. The
// landmarks (used by join.hot only) are places in the city, not traffic:
// they are drawn from the middle of the space with the city's seed and
// are the same in every run, as the city is.
func buildTrips(def *workloadDef, seed int64, space geom.Rect2) [numClients][]trip {
	lrng := rand.New(rand.NewSource(tripSeed(citySpec.Seed, "landmarks", 0, 0)))
	lm := make([]geom.Vec2, joinLandmarks)
	for i := range lm {
		lm[i] = geom.V2(
			space.Min.X+space.Width()*(0.2+0.6*lrng.Float64()),
			space.Min.Y+space.Height()*(0.2+0.6*lrng.Float64()),
		)
	}
	var out [numClients][]trip
	for c := range out {
		out[c] = make([]trip, def.Pool)
		for k := range out[c] {
			out[c][k] = def.gen(rand.New(rand.NewSource(tripSeed(seed, def.Family, c, k))), space, lm, def.Frames)
		}
	}
	return out
}

// tripsDigest hashes the trip pools together with the oracle's per-frame
// new-coefficient counts: two runs with equal digests issued the same
// queries and were owed the same answers.
func tripsDigest(trips [numClients][]trip, want [numClients][]expectation) string {
	h := sha256.New()
	var b [8]byte
	f := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for c := range trips {
		for k, t := range trips[c] {
			for i, fr := range t {
				f(fr.Q.Min.X)
				f(fr.Q.Min.Y)
				f(fr.Q.Max.X)
				f(fr.Q.Max.Y)
				f(fr.Speed)
				binary.LittleEndian.PutUint64(b[:], uint64(want[c][k].counts[i]))
				h.Write(b[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
