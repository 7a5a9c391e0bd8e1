package motion

import (
	"math"

	"repro/internal/geom"
)

// VisitProbabilities computes, for the grid blocks around the client, the
// probability that the client visits them within the prediction horizon
// (paper Fig. 4), under any estimator: for each look-ahead i = 1..horizon
// the predicted position defines a normal distribution
// N(ŝ_{t+i}, P_{t+i}); each block's probability mass is accumulated
// across look-aheads and the result is normalized to sum to 1. Blocks
// farther than ~3σ from every predicted mean are omitted.
func VisitProbabilities(p Estimator, g *geom.Grid, horizon int) map[geom.Cell]float64 {
	out := make(map[geom.Cell]float64)
	if !p.Ready() || horizon < 1 {
		return out
	}
	cellArea := g.CellWidth() * g.CellHeight()
	for i := 1; i <= horizon; i++ {
		pr := p.Predict(i)
		sx := math.Max(math.Sqrt(pr.VarX), g.CellWidth()/4)
		sy := math.Max(math.Sqrt(pr.VarY), g.CellHeight()/4)
		if math.IsInf(sx, 1) || math.IsInf(sy, 1) {
			continue
		}
		reach := geom.R2(pr.Mean.X-3*sx, pr.Mean.Y-3*sy, pr.Mean.X+3*sx, pr.Mean.Y+3*sy)
		for _, c := range g.CellsIn(reach) {
			out[c] += gauss2(g.CellCenter(c), pr.Mean, sx, sy) * cellArea
		}
	}
	normalize(out)
	return out
}

// FrameVisitProbabilities is VisitProbabilities for a client with an
// extended query frame rather than a point position: the blocks a future
// frame will need are all blocks overlapping the frame rectangle around
// the predicted position, so each look-ahead spreads its mass over the
// predicted frame, attenuated by the Gaussian distance from the block
// center to that rectangle. Each look-ahead contributes equal total mass;
// the result is normalized to sum to 1.
func FrameVisitProbabilities(p Estimator, g *geom.Grid, horizon int, frameSide float64) map[geom.Cell]float64 {
	out := make(map[geom.Cell]float64)
	if !p.Ready() || horizon < 1 {
		return out
	}
	for i := 1; i <= horizon; i++ {
		pr := p.Predict(i)
		sx := math.Max(math.Sqrt(pr.VarX), g.CellWidth()/4)
		sy := math.Max(math.Sqrt(pr.VarY), g.CellHeight()/4)
		if math.IsInf(sx, 1) || math.IsInf(sy, 1) {
			continue
		}
		frame := geom.RectAround(pr.Mean, frameSide)
		reach := frame.Expand(3 * math.Max(sx, sy))
		step := make(map[geom.Cell]float64)
		for _, c := range g.CellsIn(reach) {
			ctr := g.CellCenter(c)
			dx := axisDist(ctr.X, frame.Min.X, frame.Max.X) / sx
			dy := axisDist(ctr.Y, frame.Min.Y, frame.Max.Y) / sy
			step[c] = math.Exp(-0.5 * (dx*dx + dy*dy))
		}
		normalize(step)
		for c, v := range step {
			out[c] += v
		}
	}
	normalize(out)
	return out
}

// axisDist returns the distance from x to the interval [lo, hi].
func axisDist(x, lo, hi float64) float64 {
	if x < lo {
		return lo - x
	}
	if x > hi {
		return x - hi
	}
	return 0
}

// gauss2 evaluates the axis-aligned bivariate normal density.
func gauss2(p, mean geom.Vec2, sx, sy float64) float64 {
	dx := (p.X - mean.X) / sx
	dy := (p.Y - mean.Y) / sy
	return math.Exp(-0.5*(dx*dx+dy*dy)) / (2 * math.Pi * sx * sy)
}

func normalize(m map[geom.Cell]float64) {
	var sum float64
	for _, v := range m {
		sum += v
	}
	if sum <= 0 {
		return
	}
	for k := range m {
		m[k] /= sum
	}
}

// SectorProbabilities partitions the plane around the client into k
// equal sectors (paper Fig. 4(b), k = 4) and sums each sector's block
// probabilities. A block whose direction falls exactly on a partition
// line is assigned to one of the two adjacent sectors by alternating
// parity, resolving the tie the way the paper resolves blocks (5,5),
// (6,6), (7,7), (8,8). The result is normalized to sum to 1; a uniform
// distribution is returned when no probability mass is available.
func SectorProbabilities(origin geom.Vec2, probs map[geom.Cell]float64, g *geom.Grid, k int) []float64 {
	if k < 1 {
		panic("motion: need at least one sector")
	}
	out := make([]float64, k)
	width := 2 * math.Pi / float64(k)
	var total float64
	for c, pv := range probs {
		d := g.CellCenter(c).Sub(origin)
		if d.Len() == 0 {
			// The client's own block supports every direction equally.
			for i := range out {
				out[i] += pv / float64(k)
			}
			total += pv
			continue
		}
		a := d.Angle()
		// Sector i covers [i·width − width/2, i·width + width/2) so sector
		// 0 is centered on east, matching Fig. 4(b)'s diagonal partition
		// lines for k = 4.
		shifted := a + width/2
		frac := shifted / width
		idx := int(math.Floor(frac))
		const eps = 1e-9
		if math.Abs(frac-math.Round(frac)) < eps {
			// On a partition line: alternate between the two sectors by
			// block parity.
			idx = int(math.Round(frac))
			if (c.Col+c.Row)%2 == 0 {
				idx--
			}
		}
		idx = ((idx % k) + k) % k
		out[idx] += pv
		total += pv
	}
	if total <= 0 {
		for i := range out {
			out[i] = 1 / float64(k)
		}
		return out
	}
	for i := range out {
		out[i] /= total
	}
	return out
}
