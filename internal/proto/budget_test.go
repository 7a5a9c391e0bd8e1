package proto

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"net"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/retrieval"
	"repro/internal/wavelet"
)

func le32(buf []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(buf, v) }
func le64(buf []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(buf, v) }

func TestBudgetRequestRoundtrip(t *testing.T) {
	req := Request{
		MaxBytes: 12345,
		Subs: []retrieval.SubQuery{
			{Region: geom.R2(1, 2, 3, 4), WMin: 0.1, WMax: 0.9},
			{Region: geom.R2(5, 6, 7, 8), WMin: 0, WMax: 1},
		},
	}
	var buf bytes.Buffer
	if err := NewWriter(&buf).WriteRequest(req); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	tag, err := r.ReadTag()
	if err != nil || tag != TagRequest {
		t.Fatalf("tag = %d err = %v", tag, err)
	}
	got, err := r.ReadRequest()
	if err != nil {
		t.Fatal(err)
	}
	if got.MaxBytes != req.MaxBytes {
		t.Fatalf("roundtrip budget %d, want %d", got.MaxBytes, req.MaxBytes)
	}
	if !reflect.DeepEqual(got.Subs, req.Subs) {
		t.Fatalf("roundtrip subs %+v != %+v", got.Subs, req.Subs)
	}
}

func TestBudgetRequestRejectsNegativeBudget(t *testing.T) {
	var buf bytes.Buffer
	if err := NewWriter(&buf).WriteRequest(Request{MaxBytes: -1}); err == nil {
		t.Fatal("negative budget encoded")
	}

	// A crafted frame with a valid checksum over a negative budget must
	// be rejected by the decoder's post-CRC validation (not as ErrChecksum
	// — the bytes arrived intact, the field is garbage).
	var body []byte
	body = le64(body, uint64(^uint64(0))) // MaxBytes = -1
	body = le32(body, 0)                  // no sub-queries
	frame := append([]byte{TagRequest}, body...)
	frame = le32(frame, crc32.Checksum(body, crcTable))
	r := NewReader(bytes.NewReader(frame))
	if _, err := r.ReadTag(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadRequest(); err == nil || err == ErrChecksum {
		t.Fatalf("negative wire budget: err = %v, want a validation error", err)
	}
}

func TestBudgetResponseRoundtrip(t *testing.T) {
	coeffs := []Coeff{
		{Object: 1, Vertex: 2, Delta: geom.Vec3{X: 0.1, Y: -0.2, Z: 0.3}, Pos: [3]float32{1, 2, 3}, Value: 0.5},
		{Object: 4, Vertex: 5, Delta: geom.Vec3{X: -1, Y: 2, Z: -3}, Pos: [3]float32{4, 5, 6}, Value: 0.25},
	}
	payload := EncodeResponsePayload(nil, coeffs)
	var buf bytes.Buffer
	if err := NewWriter(&buf).writeResponsePayload(len(coeffs), 7, 3, 11, payload); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	tag, err := r.ReadTag()
	if err != nil || tag != TagResponse {
		t.Fatalf("tag = %d err = %v", tag, err)
	}
	var resp Response
	if err := r.ReadResponseInto(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.IO != 7 || resp.Seq != 3 || resp.Dropped != 11 {
		t.Fatalf("metadata io/seq/dropped = %d/%d/%d", resp.IO, resp.Seq, resp.Dropped)
	}
	if !reflect.DeepEqual(resp.Coeffs, coeffs) {
		t.Fatalf("roundtrip coeffs %+v != %+v", resp.Coeffs, coeffs)
	}

	// A negative dropped count never leaves a conforming writer.
	if err := NewWriter(&buf).writeResponsePayload(0, 0, 1, -1, nil); err == nil {
		t.Fatal("negative dropped count encoded")
	}
	if err := NewWriter(&buf).WriteResponse(Response{Dropped: -1}); err == nil {
		t.Fatal("negative dropped count encoded")
	}

	// Reusing the decode scratch for a response that withholds nothing
	// must zero Dropped, not leak the previous frame's.
	buf.Reset()
	if err := NewWriter(&buf).WriteResponsePayload(0, 1, 4, nil); err != nil {
		t.Fatal(err)
	}
	r = NewReader(&buf)
	if _, err := r.ReadTag(); err != nil {
		t.Fatal(err)
	}
	if err := r.ReadResponseInto(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Dropped != 0 {
		t.Fatalf("complete response leaked dropped count %d", resp.Dropped)
	}
}

// TestBudgetFrameLayoutPin hand-encodes the request and response frames
// with binary.LittleEndian, record fields included, and pins the
// writers to those exact bytes. The byte budget sits where version 4's
// plain request carried the speed, so a request is the size it was.
func TestBudgetFrameLayoutPin(t *testing.T) {
	req := Request{
		MaxBytes: 1 << 20,
		Subs:     []retrieval.SubQuery{{Region: geom.R2(1, 2, 3, 4), WMin: 0.25, WMax: 0.75}},
	}
	var body []byte
	body = le64(body, uint64(req.MaxBytes))
	body = le32(body, 1)
	for _, f := range []float64{1, 2, 3, 4, 0.25, 0.75} {
		body = le64(body, math.Float64bits(f))
	}
	want := append([]byte{TagRequest}, body...)
	want = le32(want, crc32.Checksum(body, crcTable))
	if len(want) != 1+8+4+6*8+4 {
		t.Fatalf("hand-encoded request is %d bytes", len(want))
	}

	var buf bytes.Buffer
	if err := NewWriter(&buf).WriteRequest(req); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("request layout drifted:\n got %x\nwant %x", buf.Bytes(), want)
	}

	// Response: count, io, seq, dropped, records, CRC.
	coeff := Coeff{Object: 3, Vertex: 9, Delta: geom.Vec3{X: 0.5, Y: -1, Z: 2}, Pos: [3]float32{7, 8, 9}, Value: 0.25}
	var rbody []byte
	rbody = le32(rbody, 1)
	rbody = le64(rbody, 42) // io
	rbody = le64(rbody, 6)  // seq
	rbody = le64(rbody, 5)  // dropped
	rbody = le32(rbody, 3)  // object
	rbody = le32(rbody, 9)  // vertex
	for _, f := range []float64{0.5, -1, 2} {
		rbody = le64(rbody, math.Float64bits(f))
	}
	for _, f := range []float32{7, 8, 9, 0.25} { // pos, value
		rbody = le32(rbody, math.Float32bits(f))
	}
	wantResp := append([]byte{TagResponse}, rbody...)
	wantResp = le32(wantResp, crc32.Checksum(rbody, crcTable))
	buf.Reset()
	if err := NewWriter(&buf).WriteResponse(Response{Coeffs: []Coeff{coeff}, IO: 42, Seq: 6, Dropped: 5}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), wantResp) {
		t.Fatalf("response layout drifted:\n got %x\nwant %x", buf.Bytes(), wantResp)
	}
	buf.Reset()
	if err := NewWriter(&buf).writeResponsePayload(1, 42, 6, 5, EncodeResponsePayload(nil, []Coeff{coeff})); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), wantResp) {
		t.Fatalf("payload response layout drifted:\n got %x\nwant %x", buf.Bytes(), wantResp)
	}
}

// recordingConn copies everything read off the connection into rec (when
// armed), so a test can capture the exact frame bytes a server emitted.
type recordingConn struct {
	net.Conn
	rec *bytes.Buffer
}

func (c *recordingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.rec != nil {
		c.rec.Write(p[:n])
	}
	return n, err
}

// rawExchange dials the server, completes the handshake, sends one
// request, and returns the server's response both parsed and as the raw
// frame bytes it arrived in.
func rawExchange(t *testing.T, addr string, req Request) ([]byte, Response) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	rc := &recordingConn{Conn: conn}
	r, w := NewReader(rc), NewWriter(conn)
	if tag, err := r.ReadTag(); err != nil || tag != TagHello {
		t.Fatalf("handshake tag = %d err = %v", tag, err)
	}
	if _, err := r.ReadHello(); err != nil {
		t.Fatal(err)
	}
	// The server writes nothing between the hello and its reply to our
	// request, so arming the recorder here captures exactly one frame.
	rc.rec = &bytes.Buffer{}
	if err := w.WriteRequest(req); err != nil {
		t.Fatal(err)
	}
	tag, err := r.ReadTag()
	if err != nil || tag != TagResponse {
		t.Fatalf("reply tag = %d err = %v, want %d", tag, err, TagResponse)
	}
	var resp Response
	if err := r.ReadResponseInto(&resp); err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), rc.rec.Bytes()...), resp
}

// TestBudgetZeroMatchesPlainWire is the protocol-level oracle-equality
// test for the unlimited budget: for the same sub-queries against fresh
// sessions, a request with MaxBytes = 0 must be answered byte for byte
// like one whose budget exceeds the whole response.
func TestBudgetZeroMatchesPlainWire(t *testing.T) {
	addr, d, _, _, shutdown := startHardenedServer(t, nil)
	defer shutdown()
	subs := []retrieval.SubQuery{{Region: d.Store.Bounds().XY(), WMin: 0, WMax: 1}}

	zeroFrame, zeroResp := rawExchange(t, addr, Request{Subs: subs})
	roomyFrame, _ := rawExchange(t, addr, Request{Subs: subs, MaxBytes: 1 << 40})

	if len(zeroResp.Coeffs) == 0 {
		t.Fatal("whole-space query returned no coefficients")
	}
	if zeroResp.Dropped != 0 {
		t.Fatalf("unlimited budget withheld %d coefficients", zeroResp.Dropped)
	}
	if !bytes.Equal(zeroFrame, roomyFrame) {
		t.Fatalf("MaxBytes = 0 frame (%d bytes) differs from a roomy-budget frame (%d bytes)", len(zeroFrame), len(roomyFrame))
	}
}

// TestFrameBudgetTruncationConvergence drives budgeted frames end to end
// through a live server: a budget a quarter of the universe must
// truncate, every frame must fit its budget, the per-frame accounting
// must reconcile exactly (delivered so far + withheld = universe), and
// repeated frames over the same window must converge to the full
// coefficient set without ever re-delivering a record.
func TestFrameBudgetTruncationConvergence(t *testing.T) {
	addr, d, _, _, shutdown := startHardenedServer(t, nil)
	defer shutdown()
	space := d.Store.Bounds().XY()

	// Universe size: one unlimited budgeted frame on its own session.
	ref, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	n0, dropped, err := ref.FrameBudget(space, 0, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 || n0 == 0 {
		t.Fatalf("unlimited frame: %d coeffs, %d dropped", n0, dropped)
	}
	ref.Close()

	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	budget := int64(n0/4+1) * wavelet.WireBytes
	total := 0
	for frame := 1; ; frame++ {
		n, dropped, err := c.FrameBudget(space, 0, budget, 3)
		if err != nil {
			t.Fatal(err)
		}
		if int64(n)*wavelet.WireBytes > budget {
			t.Fatalf("frame %d: %d coeffs overflow the %d-byte budget", frame, n, budget)
		}
		total += n
		if int64(total)+dropped != int64(n0) {
			t.Fatalf("frame %d: delivered %d + withheld %d != universe %d", frame, total, dropped, n0)
		}
		if frame == 1 && dropped == 0 {
			t.Fatal("quarter-universe budget did not truncate")
		}
		if dropped == 0 {
			break
		}
		if frame > 16 {
			t.Fatal("budgeted frames never converged")
		}
	}
	if total != n0 {
		t.Fatalf("converged on %d coefficients, universe has %d", total, n0)
	}
	// The window is fully delivered: one more frame streams nothing new.
	n, dropped, err := c.FrameBudget(space, 0, budget, 3)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || dropped != 0 {
		t.Fatalf("post-convergence frame re-delivered %d coeffs (%d dropped)", n, dropped)
	}
}

// TestBudgetCapClampsEveryFrame pins the server-side cap: it clamps
// every request — a budgeted frame's "unlimited" MaxBytes = 0 and its
// over-cap budgets, and every plain Frame of a tour. The plain client,
// told what the cap withheld, keeps asking for it: after lingering at
// its last window it holds exactly what an uncapped oracle holds.
func TestBudgetCapClampsEveryFrame(t *testing.T) {
	const capCoeffs = 40
	capBytes := int64(capCoeffs) * wavelet.WireBytes
	addr, d, _, _, shutdown := startHardenedServer(t, func(s *Server) {
		s.SetBudgetCap(capBytes)
	})
	defer shutdown()
	oracleAddr, _, _, _, oracleShutdown := startHardenedServer(t, nil)
	defer oracleShutdown()
	space := d.Store.Bounds().XY()
	if n := d.Store.NumCoeffs(); n <= capCoeffs {
		t.Fatalf("universe of %d coeffs too small to exercise a %d-coeff cap", n, capCoeffs)
	}

	for _, maxBytes := range []int64{0, capBytes * 4} {
		c, err := Dial(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		n, dropped, err := c.FrameBudget(space, 0, maxBytes, 3)
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
		if n > capCoeffs {
			t.Fatalf("MaxBytes=%d: %d coeffs exceed the server cap of %d", maxBytes, n, capCoeffs)
		}
		if dropped == 0 {
			t.Fatalf("MaxBytes=%d: capped response reports nothing withheld", maxBytes)
		}
	}

	capped, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer capped.Close()
	oracle, err := Dial(oracleAddr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	frames := append(soakTrajectory(3, 12, space), soakFrame{q: space, speed: 0})
	for i, f := range frames {
		if _, err := oracle.Frame(f.q, f.speed); err != nil {
			t.Fatal(err)
		}
		n, err := capped.Frame(f.q, f.speed)
		if err != nil {
			t.Fatal(err)
		}
		if n > capCoeffs {
			t.Fatalf("tour frame %d: %d coeffs exceed the server cap of %d", i, n, capCoeffs)
		}
	}
	if capped.Coefficients >= oracle.Coefficients {
		t.Fatalf("cap withheld nothing over the tour: %d vs %d coefficients", capped.Coefficients, oracle.Coefficients)
	}
	last := frames[len(frames)-1]
	for linger := 0; ; linger++ {
		n, err := capped.Frame(last.q, last.speed)
		if err != nil {
			t.Fatal(err)
		}
		if n > capCoeffs {
			t.Fatalf("linger frame %d: %d coeffs exceed the server cap of %d", linger, n, capCoeffs)
		}
		if n == 0 {
			break
		}
		if linger > int(d.Store.NumCoeffs()) {
			t.Fatal("capped client never caught up at its last window")
		}
	}
	if capped.Coefficients != oracle.Coefficients {
		t.Fatalf("capped client holds %d coefficients, oracle %d", capped.Coefficients, oracle.Coefficients)
	}
	for _, id := range oracle.Objects() {
		om, _ := oracle.Mesh(id)
		cm, ok := capped.Mesh(id)
		if !ok || capped.CoeffCount(id) != oracle.CoeffCount(id) {
			t.Fatalf("object %d: %d coefficients, oracle has %d", id, capped.CoeffCount(id), oracle.CoeffCount(id))
		}
		for v := range om.Verts {
			if om.Verts[v] != cm.Verts[v] {
				t.Fatalf("object %d vertex %d differs from the uncapped oracle", id, v)
			}
		}
	}
}
