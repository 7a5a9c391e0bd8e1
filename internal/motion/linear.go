package motion

import (
	"math"

	"repro/internal/geom"
)

// Estimator is the prediction interface the buffer manager consumes. The
// paper's proposal is the RLS/Kalman Predictor; LinearPredictor is the
// simple constant-velocity alternative of prior prefetching work ([14] in
// the paper: "assume linear movement of objects that use the speed and
// the direction of the client"), kept as an ablation baseline.
type Estimator interface {
	// Observe feeds the client's next position.
	Observe(pos geom.Vec2)
	// Ready reports whether enough history has accumulated to predict.
	Ready() bool
	// Predict estimates the position `steps` timestamps ahead.
	Predict(steps int) Prediction
	// Current returns the last observed position.
	Current() geom.Vec2
}

// Statically assert both predictors satisfy the interface.
var (
	_ Estimator = (*Predictor)(nil)
	_ Estimator = (*LinearPredictor)(nil)
)

// LinearPredictor extrapolates the most recent displacement with constant
// velocity. Its uncertainty estimate is the variance of recent
// displacements around their mean — honest about turn-heavy motion, but
// unlike the RLS predictor it can neither fit acceleration nor curves.
type LinearPredictor struct {
	last     geom.Vec2
	vel      geom.Vec2
	varX     float64
	varY     float64
	seen     int
	smoothed bool // velocity EMA initialized
}

// NewLinearPredictor creates the constant-velocity baseline.
func NewLinearPredictor() *LinearPredictor { return &LinearPredictor{} }

// Observe feeds the next position.
func (p *LinearPredictor) Observe(pos geom.Vec2) {
	if p.seen > 0 {
		d := pos.Sub(p.last)
		const alpha = 0.3
		if !p.smoothed {
			p.vel = d
			p.smoothed = true
		} else {
			ex, ey := d.X-p.vel.X, d.Y-p.vel.Y
			p.varX = (1-alpha)*p.varX + alpha*ex*ex
			p.varY = (1-alpha)*p.varY + alpha*ey*ey
			p.vel = p.vel.Scale(1 - alpha).Add(d.Scale(alpha))
		}
	}
	p.last = pos
	p.seen++
}

// Ready reports whether at least one displacement has been seen.
func (p *LinearPredictor) Ready() bool { return p.seen >= 2 }

// Predict extrapolates `steps` ahead at the smoothed velocity, with
// variance growing linearly in the horizon (independent per-step noise).
func (p *LinearPredictor) Predict(steps int) Prediction {
	if !p.Ready() {
		return Prediction{Mean: p.last, VarX: math.Inf(1), VarY: math.Inf(1)}
	}
	return Prediction{
		Mean: p.last.Add(p.vel.Scale(float64(steps))),
		VarX: p.varX * float64(steps),
		VarY: p.varY * float64(steps),
	}
}

// Current returns the last observed position.
func (p *LinearPredictor) Current() geom.Vec2 { return p.last }
