package faultnet

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// Profile kinds. A profile is the link's bandwidth schedule, fixed
// (flat) or time-varying — the bandwidth traces the ABR acceptance
// harness drives the adaptive client through.
const (
	ProfileFlat = "flat" // constant High
	ProfileStep = "step" // square wave: High for half a period, Low for the other
	ProfileRamp = "ramp" // sawtooth: Low rising linearly to High, then reset
	ProfileOsc  = "osc"  // sinusoid between Low and High
)

// Profile is a deterministic time-varying bandwidth schedule. All
// connections sharing one *Profile share one trace epoch: the schedule
// describes the link over wall-clock time, so a client that redials
// mid-trace lands at the bandwidth the trace has reached, not at a
// restarted one. The shape is pure — given the same elapsed time every
// field combination yields the same rate — so experiments stay
// reproducible up to scheduling noise.
//
// Phase offsets the trace start inside its period; seed-deriving it
// (phase = seed mod period) gives runs with different seeds different
// alignments of the same shape.
type Profile struct {
	// Kind selects the shape ("" = ProfileFlat).
	Kind string
	// Low and High bound the schedule in bytes per second. A computed
	// rate ≤ 0 (e.g. a step profile with Low = 0) leaves the link
	// momentarily unthrottled, as a nil Config.Throttle leaves it.
	Low, High int64
	// Period is one cycle of the schedule (flat profiles ignore it; for
	// the others, Period ≤ 0 degenerates to flat at High).
	Period time.Duration
	// Phase advances the trace's starting point.
	Phase time.Duration

	once  sync.Once
	epoch time.Time
}

// ValidProfileKind reports whether kind names a known schedule shape.
func ValidProfileKind(kind string) bool {
	switch kind {
	case "", ProfileFlat, ProfileStep, ProfileRamp, ProfileOsc:
		return true
	}
	return false
}

// Start pins the trace epoch to the first call's instant (idempotent)
// and returns it. Wrap calls it when a connection adopts the profile,
// so the trace starts with the first throttled connection and keeps
// running across redials.
func (p *Profile) Start() time.Time {
	p.once.Do(func() { p.epoch = time.Now() })
	return p.epoch
}

// Rate returns the link bandwidth at wall-clock instant at.
func (p *Profile) Rate(at time.Time) int64 {
	return p.RateAt(at.Sub(p.Start()))
}

// RateAt returns the schedule's bandwidth after elapsed time on the
// trace — the pure shape, exposed so harnesses can plot or assert the
// trace without running a clock.
func (p *Profile) RateAt(elapsed time.Duration) int64 {
	kind := p.Kind
	if kind == "" {
		kind = ProfileFlat
	}
	if kind == ProfileFlat || p.Period <= 0 {
		return p.High
	}
	elapsed += p.Phase
	frac := float64(elapsed%p.Period) / float64(p.Period)
	if frac < 0 { // negative phase
		frac += 1
	}
	lo, hi := float64(p.Low), float64(p.High)
	switch kind {
	case ProfileStep:
		if frac < 0.5 {
			return p.High
		}
		return p.Low
	case ProfileRamp:
		return int64(lo + (hi-lo)*frac)
	case ProfileOsc:
		mid, amp := (lo+hi)/2, (hi-lo)/2
		return int64(mid + amp*math.Sin(2*math.Pi*frac))
	}
	return p.High
}

func (p *Profile) String() string {
	kind := p.Kind
	if kind == "" {
		kind = ProfileFlat
	}
	if kind == ProfileFlat {
		return fmt.Sprintf("flat %dB/s", p.High)
	}
	return fmt.Sprintf("%s %d..%dB/s over %v", kind, p.Low, p.High, p.Period)
}
