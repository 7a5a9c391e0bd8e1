// Package faultdisk wraps io.ReaderAt with deterministic, seedable
// storage-fault injection: added per-read latency and jitter, transient
// I/O errors, single-bit flips in the returned buffer, torn (short)
// reads, and pinned byte ranges of permanent corruption. It is the disk
// sibling of faultnet: where faultnet models a flaky wireless link under
// the wire protocol, faultdisk models a failing commodity disk under the
// paged coefficient store — the harness the pager's retry/quarantine
// path and the serving stack's withhold-and-converge degradation are
// exercised against.
//
// Determinism: every transient-fault offset is drawn from a rand source
// seeded by Config.Seed, in read order, measured in cumulative bytes
// *requested* (so an injected error still advances the schedule and two
// runs over the same read sequence inject the same faults). Latency
// spends wall-clock time but never changes which bytes fail.
//
// Transient vs permanent: transient faults (errors, flips, torn reads)
// perturb a single ReadAt and leave the underlying bytes intact — a
// retry sees clean data. Permanent corruption (SetCorrupt) damages a
// byte range on every read until ClearCorrupt, modeling a bad sector;
// layered under persist's page CRCs it produces the checksum-verified
// hard failure the pager quarantines instead of retrying.
package faultdisk

import (
	"errors"
	"io"
	"math/rand"
	"sync"
	"time"

	"repro/internal/stats"
)

// Config describes the disk's behavior. The zero value is a transparent
// wrapper (no faults, no delay).
type Config struct {
	// Seed drives every random draw (fault offsets, jitter).
	Seed int64
	// Latency is added to every ReadAt, modeling seek + rotation cost.
	Latency time.Duration
	// Jitter adds a uniform random [0, Jitter) on top of Latency.
	Jitter time.Duration
	// ErrAfterMin/Max: a ReadAt fails outright (0 bytes, ErrInjected)
	// after a cumulative requested-byte count drawn uniformly from
	// [Min, Max], re-drawn after each error. Zero disables.
	ErrAfterMin, ErrAfterMax int64
	// FlipAfterMin/Max: one bit is flipped in the returned buffer after
	// a requested-byte count drawn from [Min, Max], re-drawn after each
	// flip. The flip is transient — the disk itself is untouched, so a
	// retry reads clean bytes. Zero disables.
	FlipAfterMin, FlipAfterMax int64
	// TornAfterMin/Max: a ReadAt returns only half the requested bytes
	// (with ErrInjected) after a requested-byte count drawn from
	// [Min, Max], re-drawn after each torn read. Zero disables.
	TornAfterMin, TornAfterMax int64
}

// ErrInjected is the error surfaced by injected transient faults.
var ErrInjected = errors.New("faultdisk: injected I/O error")

// IsInjected reports whether err came from an injected fault (as
// opposed to a real storage failure).
func IsInjected(err error) bool { return errors.Is(err, ErrInjected) }

// Counters tallies injected faults by kind. CorruptReads counts reads
// that overlapped a SetCorrupt range (the permanent plane); the others
// count transient injections.
type Counters struct {
	Errs         int64
	Flips        int64
	Torn         int64
	CorruptReads int64
}

// Total sums every injected-fault counter.
func (c Counters) Total() int64 { return c.Errs + c.Flips + c.Torn + c.CorruptReads }

// span is one permanently corrupted byte range [Off, Off+Len).
type span struct {
	off, n int64
}

// Reader is an io.ReaderAt with fault injection. Create one with New.
// Safe for concurrent readers (injection decisions are serialized, the
// underlying positioned reads are not).
type Reader struct {
	r   io.ReaderAt
	cfg Config

	mu        sync.Mutex
	rng       *rand.Rand
	armed     bool
	readBytes int64 // cumulative requested bytes; the schedule clock
	errAt     int64 // next fault offsets in readBytes space (0 = never)
	flipAt    int64
	tornAt    int64
	corrupt   []span
	n         Counters
	st        *stats.Stats
}

// New wraps r with the fault model, armed: transient schedules are
// drawn immediately. Call Quiesce for a wrapper that starts clean.
func New(r io.ReaderAt, cfg Config) *Reader {
	d := &Reader{r: r, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	d.armLocked()
	return d
}

// SetStats counts injected faults in st's disk.faults row (nil
// disables).
func (d *Reader) SetStats(st *stats.Stats) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.st = st
}

// drawOffset picks a fault offset uniformly in [min, max]; zero bounds
// disable the fault.
func drawOffset(rng *rand.Rand, min, max int64) int64 {
	if max <= 0 {
		return 0
	}
	if min < 1 {
		min = 1
	}
	if max < min {
		max = min
	}
	return min + rng.Int63n(max-min+1)
}

func (d *Reader) armLocked() {
	d.armed = true
	if at := drawOffset(d.rng, d.cfg.ErrAfterMin, d.cfg.ErrAfterMax); at > 0 {
		d.errAt = d.readBytes + at
	} else {
		d.errAt = 0
	}
	if at := drawOffset(d.rng, d.cfg.FlipAfterMin, d.cfg.FlipAfterMax); at > 0 {
		d.flipAt = d.readBytes + at
	} else {
		d.flipAt = 0
	}
	if at := drawOffset(d.rng, d.cfg.TornAfterMin, d.cfg.TornAfterMax); at > 0 {
		d.tornAt = d.readBytes + at
	} else {
		d.tornAt = 0
	}
}

// Arm (re-)enables transient injection, drawing fresh schedules from
// the current read position.
func (d *Reader) Arm() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.armLocked()
}

// Quiesce disables transient injection (errors, flips, torn reads,
// latency). Permanent corruption set with SetCorrupt persists — a bad
// sector does not heal because the weather improved.
func (d *Reader) Quiesce() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.armed = false
}

// SetCorrupt marks [off, off+n) permanently corrupt: every read
// overlapping the range sees those bytes XOR 0xA5 until ClearCorrupt.
func (d *Reader) SetCorrupt(off, n int64) {
	if n <= 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.corrupt = append(d.corrupt, span{off: off, n: n})
}

// ClearCorrupt heals every permanently corrupted range (the operator
// replaced the disk).
func (d *Reader) ClearCorrupt() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.corrupt = nil
}

// Counters returns the injected-fault tallies so far.
func (d *Reader) Counters() Counters {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.n
}

// readPlan is the injection decision for one ReadAt, taken under the
// mutex; the underlying positioned read happens outside it.
type readPlan struct {
	sleep time.Duration
	fail  bool  // injected error, no read
	torn  bool  // truncate to half
	flip  int64 // byte index within the request to bit-flip (-1 = none)
}

func (d *Reader) plan(reqLen int) readPlan {
	d.mu.Lock()
	defer d.mu.Unlock()
	p := readPlan{flip: -1}
	start := d.readBytes
	d.readBytes += int64(reqLen)
	if !d.armed {
		return p
	}
	if d.cfg.Latency > 0 || d.cfg.Jitter > 0 {
		p.sleep = d.cfg.Latency
		if d.cfg.Jitter > 0 {
			p.sleep += time.Duration(d.rng.Int63n(int64(d.cfg.Jitter)))
		}
	}
	if d.errAt > 0 && d.errAt > start && d.errAt <= d.readBytes {
		d.errAt = d.readBytes + drawOffset(d.rng, d.cfg.ErrAfterMin, d.cfg.ErrAfterMax)
		d.n.Errs++
		d.st.Add(stats.DiskFaults, 1)
		p.fail = true
		return p
	}
	if d.tornAt > 0 && d.tornAt > start && d.tornAt <= d.readBytes {
		d.tornAt = d.readBytes + drawOffset(d.rng, d.cfg.TornAfterMin, d.cfg.TornAfterMax)
		d.n.Torn++
		d.st.Add(stats.DiskFaults, 1)
		p.torn = true
	}
	if d.flipAt > 0 && d.flipAt > start && d.flipAt <= d.readBytes {
		p.flip = d.flipAt - start - 1
		d.flipAt = d.readBytes + drawOffset(d.rng, d.cfg.FlipAfterMin, d.cfg.FlipAfterMax)
		d.n.Flips++
		d.st.Add(stats.DiskFaults, 1)
	}
	return p
}

// applyCorrupt XORs any permanently corrupted bytes overlapping
// [off, off+n) and counts the read once if it touched damage.
func (d *Reader) applyCorrupt(p []byte, off int64, n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	touched := false
	for _, s := range d.corrupt {
		lo, hi := s.off, s.off+s.n
		if hi <= off || lo >= off+int64(n) {
			continue
		}
		if lo < off {
			lo = off
		}
		if hi > off+int64(n) {
			hi = off + int64(n)
		}
		for i := lo; i < hi; i++ {
			p[i-off] ^= 0xA5
		}
		touched = true
	}
	if touched {
		d.n.CorruptReads++
		d.st.Add(stats.DiskFaults, 1)
	}
}

// ReadAt implements io.ReaderAt over the fault model.
func (d *Reader) ReadAt(p []byte, off int64) (int, error) {
	plan := d.plan(len(p))
	if plan.sleep > 0 {
		time.Sleep(plan.sleep)
	}
	if plan.fail {
		return 0, ErrInjected
	}
	n, err := d.r.ReadAt(p, off)
	if n > 0 {
		d.applyCorrupt(p, off, n)
	}
	if plan.torn && err == nil {
		n /= 2
		err = ErrInjected
	}
	if plan.flip >= 0 && int(plan.flip) < n {
		p[plan.flip] ^= 0x10
	}
	return n, err
}
