package proto

import (
	"io"
	"math"
	"net"
	"slices"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/wavelet"
)

// replayClient returns a client bound to hello's scene as a handshake
// binds it, whose requests go nowhere and whose responses are read from
// r.
func replayClient(tb testing.TB, hello Hello, r io.Reader) *Client {
	tb.Helper()
	c := &Client{r: NewReader(r), w: NewWriter(io.Discard), hello: hello,
		recons: make(map[int32]*wavelet.Reconstructor)}
	schema, err := c.schemaFor(hello)
	if err != nil {
		tb.Fatal(err)
	}
	c.schema = schema
	return c
}

// TestClientRefusesUnreconstructableHello pins the handshake's schema
// check: the client reconstructs octahedra at the announced depth, so a
// non-empty scene with another base mesh, or a depth outside the level
// table, is refused at the hello instead of reconstructed wrongly.
func TestClientRefusesUnreconstructableHello(t *testing.T) {
	cases := []struct {
		name  string
		hello Hello
		want  string // "" = accepted
	}{
		{"octahedra", Hello{Objects: 3, Levels: 3, BaseVerts: 6}, ""},
		{"deepest level", Hello{Objects: 3, Levels: 14, BaseVerts: 6}, ""},
		{"empty scene", Hello{Objects: 0, Levels: 3, BaseVerts: 0}, ""},
		{"base of 8", Hello{Objects: 3, Levels: 3, BaseVerts: 8}, "base mesh of 8 vertices"},
		{"base of 0", Hello{Objects: 1, Levels: 3, BaseVerts: 0}, "base mesh of 0 vertices"},
		{"negative levels", Hello{Objects: 3, Levels: -1, BaseVerts: 6}, "-1 subdivision levels"},
		{"past the table", Hello{Objects: 3, Levels: 15, BaseVerts: 6}, "level 14 is the deepest"},
		{"max levels", Hello{Objects: 3, Levels: math.MaxInt32, BaseVerts: 6}, "level 14 is the deepest"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cli, srv := net.Pipe()
			defer srv.Close()
			go func() {
				h := tc.hello
				h.Version, h.Space = Version, geom.R2(0, 0, 1, 1)
				NewWriter(srv).WriteHello(h)
			}()
			c, err := NewClient(cli, nil)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("refused: %v", err)
				}
				if c.schema.Levels() != int(tc.hello.Levels) {
					t.Fatalf("schema of %d levels, hello announced %d", c.schema.Levels(), tc.hello.Levels)
				}
				cli.Close()
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one containing %q", err, tc.want)
			}
			// The refused connection is closed.
			if _, err := cli.Write([]byte{0}); err == nil {
				t.Fatal("refused connection still open")
			}
		})
	}
}

// newObjectsResponse is a response introducing objects objects to a
// client, perObject records each with vertex ids climbing through every
// level of a 3-level octahedron, as a new client's first window brings
// them.
func newObjectsResponse(objects, perObject int) []byte {
	const finest = 258 // vertices of a 3-level octahedron
	var records []byte
	for o := 0; o < objects; o++ {
		for k := 0; k < perObject; k++ {
			w := wavelet.WireRecord{Object: int32(100 + 7*o), Vertex: int32(k * finest / perObject),
				Delta: geom.V3(float64(o), float64(k), 1)}
			records = wavelet.AppendWire(records, &w)
		}
	}
	return records
}

// TestApplyAllocsPerNewObject gates the arrival path: a response's new
// object costs its reconstructor and one exact-size allocation of each
// vertex slice, and the client's map adds a constant, whatever the
// number of records per object.
func TestApplyAllocsPerNewObject(t *testing.T) {
	const objects = 8
	// The map's growth to 8 entries: its header and one group.
	const mapAllocs = 2
	hello := Hello{Objects: 16, Levels: 3, BaseVerts: 6}
	for _, perObject := range []int{1, 75} {
		records := newObjectsResponse(objects, perObject)
		c := replayClient(t, hello, nil)
		allocs := testing.AllocsPerRun(20, func() {
			c.recons = make(map[int32]*wavelet.Reconstructor)
			c.apply(records)
		})
		if len(c.recons) != objects {
			t.Fatalf("%d objects applied, want %d", len(c.recons), objects)
		}
		if limit := float64(3*objects + mapAllocs); allocs > limit {
			t.Errorf("%d records per object: %.0f allocations for %d new objects, want at most %.0f",
				perObject, allocs, objects, limit)
		}
	}
}

// FuzzApplyMatchesReconstructor holds Client.apply — runs per object,
// one Reserve per run, the shared schema — to the plain per-object
// reconstructor applying the same records one by one in the same order.
// Each 4-byte group of data is a record: the object (low 3 bits of the
// first byte), a vertex id (the next two bytes: by default in [-1, V_J],
// the raw int16 when bit 6 of the first byte is set, which reaches far
// outside the topology both ways) and a displacement (the fourth byte).
// Bit 7 of the first byte ends the response before the record, so one
// input is several responses. Ids need not ascend, objects recur
// across runs and responses, and records repeat.
func FuzzApplyMatchesReconstructor(f *testing.F) {
	rec := func(flags byte, object byte, vertex int16, d byte) []byte {
		return []byte{flags | object&7, byte(vertex), byte(uint16(vertex) >> 8), d}
	}
	cat := func(rs ...[]byte) []byte { return slices.Concat(rs...) }
	const raw, split = 0x40, 0x80
	f.Add(uint8(3), cat(rec(0, 1, 0, 1), rec(0, 1, 5, 2), rec(0, 1, 6, 3), rec(0, 1, 200, 4)))
	// A run spanning a sub-query boundary: ids fall back and climb again.
	f.Add(uint8(3), cat(rec(0, 2, 40, 1), rec(0, 2, 250, 2), rec(0, 2, 3, 3), rec(0, 2, 66, 4), rec(0, 2, 7, 5)))
	// One object in two runs of a response, and again in the next.
	f.Add(uint8(2), cat(rec(0, 1, 60, 1), rec(0, 2, 4, 2), rec(0, 1, 9, 3), rec(split, 1, 65, 4), rec(0, 2, 17, 5)))
	// Duplicates, one with a new displacement.
	f.Add(uint8(3), cat(rec(0, 3, 30, 1), rec(0, 3, 30, 1), rec(0, 3, 2, 7), rec(0, 3, 30, 9), rec(split, 3, 2, 7)))
	// Negative ids and ids outside the final topology, first in a run.
	f.Add(uint8(3), cat(rec(raw, 4, -1, 1), rec(raw, 4, math.MinInt16, 2), rec(0, 4, 5, 3), rec(raw, 4, 258, 4),
		rec(raw, 4, math.MaxInt16, 5), rec(0, 4, 257, 6), rec(raw, 5, -3, 7)))
	// Levels 0: every detail id lies outside the topology.
	f.Add(uint8(0), cat(rec(0, 1, 3, 1), rec(0, 1, 6, 2), rec(raw, 1, 12, 3)))
	f.Fuzz(func(t *testing.T, levels uint8, data []byte) {
		levels %= 4
		final := int32(4<<(2*levels) + 2) // V_J of an octahedron
		c := replayClient(t, Hello{Objects: 8, Levels: int32(levels), BaseVerts: 6}, nil)
		want := make(map[int32]*wavelet.Reconstructor)
		var records []byte
		for i := 0; i+4 <= len(data); i += 4 {
			b := data[i : i+4]
			if b[0]&split != 0 {
				c.apply(records)
				records = records[:0]
			}
			w := wavelet.WireRecord{Object: int32(b[0] & 7), Delta: geom.V3(float64(b[3]), float64(i), -1)}
			if v := int32(int16(uint16(b[1]) | uint16(b[2])<<8)); b[0]&raw != 0 {
				w.Vertex = v
			} else {
				w.Vertex = (v%(final+2)+final+2)%(final+2) - 1
			}
			records = wavelet.AppendWire(records, &w)
			r := want[w.Object]
			if r == nil {
				r = wavelet.NewReconstructor(mesh.Octahedron(), geom.Vec3{}, int(levels))
				want[w.Object] = r
			}
			level := int8(1)
			if w.Vertex < 6 {
				level = wavelet.BaseLevel
			}
			r.Apply(wavelet.Coefficient{Object: w.Object, Vertex: w.Vertex, Level: level, Delta: w.Delta})
		}
		c.apply(records)

		got := c.Objects()
		slices.Sort(got)
		var wantObjs []int32
		for o := range want {
			wantObjs = append(wantObjs, o)
		}
		slices.Sort(wantObjs)
		if !slices.Equal(got, wantObjs) {
			t.Fatalf("objects %v, want %v", got, wantObjs)
		}
		for o, r := range want {
			if n := c.CoeffCount(o); n != r.Count() {
				t.Fatalf("object %d: %d coefficients, want %d", o, n, r.Count())
			}
			m, _ := c.Mesh(o)
			if wm := r.Mesh(); !slices.Equal(m.Verts, wm.Verts) {
				t.Fatalf("object %d: mesh differs from the reconstructor's", o)
			}
		}
	})
}
