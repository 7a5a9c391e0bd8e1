package wavelet

import (
	"encoding/binary"
	"math"
	"slices"

	"repro/internal/geom"
)

// WireBytes is the serialized size of one coefficient on the wireless
// link: object id (4) + vertex id (4) + displacement (3 × float64 = 24) +
// fitted position (3 × float32 = 12) + value (float32 = 4). At 48 bytes, a
// level-5 octahedron object (4 102 coefficients including its base
// vertices) serializes to ~197 KB, matching the paper's dataset sizing
// (100 objects ≈ 20 MB).
const WireBytes = 48

// WireRecord is one coefficient as it crosses the link: the ids, the
// full-precision displacement the reconstruction applies, the fitted
// position narrowed to float32 (enough for progressive point splatting
// before parents arrive) and the narrowed value. Whether a record is a
// base pseudo-coefficient follows from its vertex id and the base-mesh
// vertex count the handshake announces. Its encoding is WireBytes long,
// little-endian:
//
//	[0, 4)    Object
//	[4, 8)    Vertex
//	[8, 32)   Delta X, Y, Z  (float64)
//	[32, 44)  Pos X, Y, Z    (float32)
//	[44, 48)  Value          (float32)
//
// AppendWire and DecodeWire are its encoder and decoder: the resident
// store's wire array and the protocol's response frames go through
// them, and a paged store converts its segment records into the same
// bytes (index.Pins.AppendRecords, checked against AppendWire by the
// index and proto tests). WireIDs and WireDelta read single fields, for
// a reader that needs no more: the wire client's apply loop.
type WireRecord struct {
	Object int32
	Vertex int32
	Delta  geom.Vec3
	Pos    [3]float32
	Value  float32
}

// Wire returns c's wire record: Pos and Value narrowed to float32, the
// build-only fields (Level, Parent, Support) dropped.
func (c *Coefficient) Wire() WireRecord {
	return WireRecord{
		Object: c.Object,
		Vertex: c.Vertex,
		Delta:  c.Delta,
		Pos:    [3]float32{float32(c.Pos.X), float32(c.Pos.Y), float32(c.Pos.Z)},
		Value:  float32(c.Value),
	}
}

// AppendWire appends the encoding of w to buf.
func AppendWire(buf []byte, w *WireRecord) []byte {
	n := len(buf)
	buf = slices.Grow(buf, WireBytes)[:n+WireBytes]
	b := buf[n:]
	_ = b[WireBytes-1]
	binary.LittleEndian.PutUint32(b[0:], uint32(w.Object))
	binary.LittleEndian.PutUint32(b[4:], uint32(w.Vertex))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(w.Delta.X))
	binary.LittleEndian.PutUint64(b[16:], math.Float64bits(w.Delta.Y))
	binary.LittleEndian.PutUint64(b[24:], math.Float64bits(w.Delta.Z))
	binary.LittleEndian.PutUint32(b[32:], math.Float32bits(w.Pos[0]))
	binary.LittleEndian.PutUint32(b[36:], math.Float32bits(w.Pos[1]))
	binary.LittleEndian.PutUint32(b[40:], math.Float32bits(w.Pos[2]))
	binary.LittleEndian.PutUint32(b[44:], math.Float32bits(w.Value))
	return buf
}

// DecodeWire parses the record AppendWire wrote at the head of b
// (len(b) ≥ WireBytes).
func DecodeWire(b []byte) WireRecord {
	object, vertex := WireIDs(b)
	return WireRecord{
		Object: object,
		Vertex: vertex,
		Delta:  WireDelta(b),
		Pos: [3]float32{
			math.Float32frombits(binary.LittleEndian.Uint32(b[32:])),
			math.Float32frombits(binary.LittleEndian.Uint32(b[36:])),
			math.Float32frombits(binary.LittleEndian.Uint32(b[40:])),
		},
		Value: math.Float32frombits(binary.LittleEndian.Uint32(b[44:])),
	}
}

// WireIDs returns the object and vertex ids of the record at the head
// of b (len(b) ≥ WireBytes).
func WireIDs(b []byte) (object, vertex int32) {
	_ = b[WireBytes-1]
	return int32(binary.LittleEndian.Uint32(b[0:])), int32(binary.LittleEndian.Uint32(b[4:]))
}

// WireDelta returns the displacement of the record at the head of b
// (len(b) ≥ WireBytes).
func WireDelta(b []byte) geom.Vec3 {
	_ = b[WireBytes-1]
	return geom.Vec3{
		X: math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
		Y: math.Float64frombits(binary.LittleEndian.Uint64(b[16:])),
		Z: math.Float64frombits(binary.LittleEndian.Uint64(b[24:])),
	}
}
