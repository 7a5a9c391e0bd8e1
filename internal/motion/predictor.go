package motion

import (
	"math"

	"repro/internal/geom"
)

// Prediction is the estimated client position i steps ahead together with
// the per-axis variance of the estimate (the diagonal of the propagated
// error covariance P of §V-B).
type Prediction struct {
	Mean geom.Vec2
	VarX float64
	VarY float64
}

// Predictor implements the paper's state-estimation motion prediction:
// the state holds the h most recent motion increments; the one-step
// transition is an AR(h) model whose coefficients are estimated online by
// recursive least squares (the free parameters of the companion-form
// transition matrix A of §V-B); multi-step predictions iterate the model,
// and the error covariance is propagated through the same coefficients
// with the innovation variance measured from recent one-step residuals.
//
// The model works in displacement space (p_t − p_{t−1}) rather than
// absolute coordinates: it is the same linear state model up to a change
// of basis, but keeps the regressors well-conditioned when a client moves
// along an axis (constant x), which otherwise sends the least-squares
// estimate — and every multi-step prediction — off to infinity.
type Predictor struct {
	h    int
	rlsX *RLS
	rlsY *RLS
	// Displacement history, most recent first, up to h entries.
	dx, dy []float64
	// Last observed position; valid once seenPos > 0.
	last    geom.Vec2
	seenPos int
	// Exponential moving estimate of the squared one-step residual.
	innovX, innovY float64
	seenResid      int
	// Largest recent displacement magnitude, used to clamp runaway
	// multi-step extrapolation.
	maxStep float64
}

// NewPredictor creates a predictor using the h most recent displacements
// (h+1 positions). h = 3 captures velocity, acceleration, and jerk;
// larger h fits longer periodic patterns at the cost of slower
// convergence.
func NewPredictor(h int) *Predictor {
	if h < 1 {
		panic("motion: history length must be ≥ 1")
	}
	const lambda = 0.95 // forgetting tracks heading changes
	return &Predictor{
		h:    h,
		rlsX: NewRLS(h, lambda),
		rlsY: NewRLS(h, lambda),
		dx:   make([]float64, 0, h),
		dy:   make([]float64, 0, h),
	}
}

// Ready reports whether the predictor has enough history to predict.
func (p *Predictor) Ready() bool { return len(p.dx) >= p.h }

// Observe feeds the client's position at the next timestamp, updating the
// transition estimate and the innovation variance.
func (p *Predictor) Observe(pos geom.Vec2) {
	if p.seenPos == 0 {
		p.last = pos
		p.seenPos++
		return
	}
	ndx, ndy := pos.X-p.last.X, pos.Y-p.last.Y
	if p.Ready() {
		ex := ndx - p.rlsX.Predict(p.dx)
		ey := ndy - p.rlsY.Predict(p.dy)
		const alpha = 0.15
		if p.seenResid == 0 {
			p.innovX, p.innovY = ex*ex, ey*ey
		} else {
			p.innovX = (1-alpha)*p.innovX + alpha*ex*ex
			p.innovY = (1-alpha)*p.innovY + alpha*ey*ey
		}
		p.seenResid++
		p.rlsX.Update(p.dx, ndx)
		p.rlsY.Update(p.dy, ndy)
	}
	if m := math.Hypot(ndx, ndy); m > p.maxStep {
		p.maxStep = m
	}
	p.dx = shiftIn(p.dx, ndx, p.h)
	p.dy = shiftIn(p.dy, ndy, p.h)
	p.last = pos
	p.seenPos++
}

func shiftIn(hist []float64, v float64, h int) []float64 {
	if len(hist) < h {
		hist = append(hist, 0)
	}
	copy(hist[1:], hist)
	hist[0] = v
	return hist
}

// Predict estimates the client position `steps` timestamps ahead. It
// iterates the fitted displacement model on a scratch history, clamping
// each extrapolated step to 2× the largest observed step (an unstable
// AR fit must not fling the prediction across the data space), and
// propagates the innovation variance through the model coefficients —
// the e_{t+i} = A^i e_t growth of §V-B — accumulating it into position
// variance.
func (p *Predictor) Predict(steps int) Prediction {
	if !p.Ready() {
		return Prediction{Mean: p.last, VarX: math.Inf(1), VarY: math.Inf(1)}
	}
	hx := append([]float64(nil), p.dx...)
	hy := append([]float64(nil), p.dy...)
	vx := make([]float64, p.h) // per-slot displacement variance
	vy := make([]float64, p.h)
	thetaX := p.rlsX.Theta()
	thetaY := p.rlsY.Theta()
	clamp := 2 * p.maxStep

	pos := p.last
	var pvx, pvy float64 // accumulated position variance
	for i := 0; i < steps; i++ {
		ndx := clampAbs(p.rlsX.Predict(hx), clamp)
		ndy := clampAbs(p.rlsY.Predict(hy), clamp)
		var nvx, nvy float64
		for j := 0; j < p.h; j++ {
			nvx += thetaX[j] * thetaX[j] * vx[j]
			nvy += thetaY[j] * thetaY[j] * vy[j]
		}
		nvx += p.innovX
		nvy += p.innovY
		hx = shiftIn(hx, ndx, p.h)
		hy = shiftIn(hy, ndy, p.h)
		vx = shiftInVar(vx, nvx)
		vy = shiftInVar(vy, nvy)
		pos = pos.Add(geom.V2(ndx, ndy))
		pvx += nvx
		pvy += nvy
	}
	return Prediction{Mean: pos, VarX: pvx, VarY: pvy}
}

func clampAbs(v, lim float64) float64 {
	if lim <= 0 {
		return v
	}
	if v > lim {
		return lim
	}
	if v < -lim {
		return -lim
	}
	return v
}

func shiftInVar(v []float64, nv float64) []float64 {
	copy(v[1:], v)
	v[0] = nv
	return v
}

// Velocity returns the most recent observed displacement per step, or the
// zero vector before two observations.
func (p *Predictor) Velocity() geom.Vec2 {
	if len(p.dx) == 0 {
		return geom.Vec2{}
	}
	return geom.V2(p.dx[0], p.dy[0])
}

// Current returns the last observed position (zero before any
// observation).
func (p *Predictor) Current() geom.Vec2 { return p.last }
