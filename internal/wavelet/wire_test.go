package wavelet

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/geom"
)

// FuzzWireRoundTrip: a coefficient's wire record is WireBytes long,
// decodes to exactly the fields Wire narrowed it to — bit for bit, so
// NaN payloads, −0, ±Inf, subnormals and float64s that round (or
// overflow) in float32 survive — and re-encodes to the same bytes.
func FuzzWireRoundTrip(f *testing.F) {
	nan := math.Float64frombits(0x7ff4_0000_dead_beef) // a signalling NaN with a payload
	for _, v := range [][7]float64{
		{1, 2, 3, 4, 5, 6, 0.5},
		{nan, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), nan, math.Copysign(0, -1), nan},
		{math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-310, 1e-40, math.SmallestNonzeroFloat32, 1e-46, 1e-45},
		{0.1, 1.0 / 3, 16777217, math.MaxFloat32 * 2, -math.MaxFloat64, 3.4028235677973366e38, 0.9999999999},
	} {
		f.Add(int32(7), int32(-1), v[0], v[1], v[2], v[3], v[4], v[5], v[6])
	}
	f.Fuzz(func(t *testing.T, object, vertex int32, dx, dy, dz, px, py, pz, value float64) {
		c := Coefficient{Object: object, Vertex: vertex, Level: 2,
			Delta: geom.Vec3{X: dx, Y: dy, Z: dz}, Pos: geom.Vec3{X: px, Y: py, Z: pz}, Value: value}
		w := c.Wire()
		rec := AppendWire([]byte{0xaa}, &w)[1:]
		if len(rec) != WireBytes {
			t.Fatalf("record of %d bytes, want %d", len(rec), WireBytes)
		}
		got := DecodeWire(rec)
		bits64 := math.Float64bits
		bits32 := math.Float32bits
		if got.Object != object || got.Vertex != vertex ||
			bits64(got.Delta.X) != bits64(dx) || bits64(got.Delta.Y) != bits64(dy) || bits64(got.Delta.Z) != bits64(dz) ||
			bits32(got.Pos[0]) != bits32(float32(px)) || bits32(got.Pos[1]) != bits32(float32(py)) ||
			bits32(got.Pos[2]) != bits32(float32(pz)) || bits32(got.Value) != bits32(float32(value)) {
			t.Fatalf("decoded %+v from %+v", got, c)
		}
		if again := AppendWire(nil, &got); !bytes.Equal(again, rec) {
			t.Fatalf("re-encoding %x gives %x", rec, again)
		}
	})
}
