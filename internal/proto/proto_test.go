package proto

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"testing"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/retrieval"
	"repro/internal/rtree"
	"repro/internal/workload"
)

func TestHelloRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	h := Hello{Version: Version, Objects: 42, Levels: 5, BaseVerts: 6, Space: geom.R2(0, 0, 1000, 500)}
	if err := w.WriteHello(h); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	tag, err := r.ReadTag()
	if err != nil || tag != TagHello {
		t.Fatalf("tag = %d err = %v", tag, err)
	}
	got, err := r.ReadHello()
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("roundtrip %+v != %+v", got, h)
	}
}

func TestHelloVersionMismatch(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteHello(Hello{Version: Version + 1})
	r := NewReader(&buf)
	r.ReadTag()
	if _, err := r.ReadHello(); err == nil {
		t.Fatal("version mismatch accepted")
	}
}

func TestRequestRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	req := Request{
		MaxBytes: 4096,
		Subs: []retrieval.SubQuery{
			{Region: geom.R2(1, 2, 3, 4), WMin: 0.1, WMax: 0.9},
			{Region: geom.R2(5, 6, 7, 8), WMin: 0, WMax: 1},
		},
	}
	if err := w.WriteRequest(req); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	tag, _ := r.ReadTag()
	if tag != TagRequest {
		t.Fatalf("tag = %d", tag)
	}
	got, err := r.ReadRequest()
	if err != nil {
		t.Fatal(err)
	}
	if got.MaxBytes != req.MaxBytes || len(got.Subs) != 2 {
		t.Fatalf("got %+v", got)
	}
	for i := range req.Subs {
		if got.Subs[i].Region != req.Subs[i].Region ||
			got.Subs[i].WMin != req.Subs[i].WMin ||
			got.Subs[i].WMax != req.Subs[i].WMax {
			t.Fatalf("sub %d: %+v != %+v", i, got.Subs[i], req.Subs[i])
		}
	}
}

func TestRequestTooManySubQueries(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	req := Request{Subs: make([]retrieval.SubQuery, MaxSubQueries+1)}
	if err := w.WriteRequest(req); err == nil {
		t.Fatal("oversized request accepted")
	}
}

func TestResponseRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	resp := Response{
		IO: 17,
		Coeffs: []Coeff{
			{Object: 1, Vertex: 2, Delta: geom.V3(0.5, -1, 2), Pos: [3]float32{1, 2, 3}, Value: 0.75},
			{Object: 4, Vertex: 5, Delta: geom.V3(9, 9, 9), Pos: [3]float32{-1, 0, 1}, Value: 1},
		},
	}
	if err := w.WriteResponse(resp); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	tag, _ := r.ReadTag()
	if tag != TagResponse {
		t.Fatalf("tag = %d", tag)
	}
	got, err := r.ReadResponse()
	if err != nil {
		t.Fatal(err)
	}
	if got.IO != 17 || len(got.Coeffs) != 2 {
		t.Fatalf("got %+v", got)
	}
	for i := range resp.Coeffs {
		if got.Coeffs[i] != resp.Coeffs[i] {
			t.Fatalf("coeff %d: %+v != %+v", i, got.Coeffs[i], resp.Coeffs[i])
		}
	}
}

func TestErrorRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteError("boom"); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	tag, _ := r.ReadTag()
	if tag != TagError {
		t.Fatalf("tag = %d", tag)
	}
	msg, err := r.ReadError()
	if err != nil || msg != "boom" {
		t.Fatalf("msg = %q err = %v", msg, err)
	}
}

func TestCorruptedCountRejected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.u8(TagResponse)
	w.i32(-5)
	w.w.Flush()
	r := NewReader(&buf)
	r.ReadTag()
	if _, err := r.ReadResponse(); err == nil {
		t.Fatal("negative count accepted")
	}
}

// startTestServer builds a tiny dataset, serves it on a loopback
// listener, and returns the address.
func startTestServer(t *testing.T) (addr string, d *workload.Dataset, shutdown func()) {
	t.Helper()
	d = workload.Generate(workload.Spec{NumObjects: 8, Levels: 3, Seed: 5})
	idx := index.NewMotionAware(d.Store, index.XYW, rtree.Config{})
	srv := NewServer(retrieval.NewServer(d.Store, idx), d.Spec.Levels, t.Logf)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(lis); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	return lis.Addr().String(), d, func() {
		srv.Close()
		<-done
	}
}

func TestEndToEndTCP(t *testing.T) {
	addr, d, shutdown := startTestServer(t)
	defer shutdown()

	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if c.Hello().Objects != 8 || c.Hello().Levels != 3 {
		t.Fatalf("hello = %+v", c.Hello())
	}
	if c.Space().Empty() {
		t.Fatal("empty space announced")
	}

	// A slow full-space frame retrieves the entire dataset.
	n, err := c.Frame(geom.R2(-100, -100, 1100, 1100), 0)
	if err != nil {
		t.Fatal(err)
	}
	if int64(n) != d.Store.NumCoeffs() {
		t.Fatalf("received %d of %d coefficients", n, d.Store.NumCoeffs())
	}
	if c.BytesReceived != d.Store.SizeBytes() {
		t.Fatalf("bytes = %d want %d", c.BytesReceived, d.Store.SizeBytes())
	}

	// Repeat frame: the per-session filter suppresses everything.
	n, err = c.Frame(geom.R2(-100, -100, 1100, 1100), 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("repeat frame delivered %d coefficients", n)
	}

	// Every object's reconstruction now matches the server's final mesh.
	if len(c.Objects()) != 8 {
		t.Fatalf("objects = %d", len(c.Objects()))
	}
	for _, obj := range c.Objects() {
		m, ok := c.Mesh(obj)
		if !ok {
			t.Fatalf("no mesh for object %d", obj)
		}
		ref := d.Store.Objects[obj].Final
		if m.NumVerts() != ref.NumVerts() {
			t.Fatalf("object %d topology mismatch", obj)
		}
		for i := range m.Verts {
			if m.Verts[i].Dist(ref.Verts[i]) > 1e-5 {
				t.Fatalf("object %d vertex %d off by %v", obj, i, m.Verts[i].Dist(ref.Verts[i]))
			}
		}
		if c.CoeffCount(obj) != d.Store.Objects[obj].NumCoeffs() {
			t.Fatalf("object %d coefficient count mismatch", obj)
		}
	}
	if c.ServerIO <= 0 {
		t.Error("no server io reported")
	}
}

func TestEndToEndProgressive(t *testing.T) {
	addr, d, shutdown := startTestServer(t)
	defer shutdown()

	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	full := geom.R2(-100, -100, 1100, 1100)
	// Fast pass: coarse data only.
	fastN, err := c.Frame(full, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if int64(fastN) >= d.Store.NumCoeffs() {
		t.Fatalf("fast frame fetched everything (%d)", fastN)
	}
	// Slowing down streams the missing detail.
	slowN, err := c.Frame(full, 0)
	if err != nil {
		t.Fatal(err)
	}
	if int64(fastN+slowN) != d.Store.NumCoeffs() {
		t.Fatalf("fast %d + slow %d != %d", fastN, slowN, d.Store.NumCoeffs())
	}
}

// TestMultipleConcurrentClients runs clients side by side, each over
// several connections in turn, so sessions and frame buffers are
// released and taken again while other connections are live: every
// connection's first frame, the whole scene at full detail, must
// deliver every coefficient, as a fresh session does.
func TestMultipleConcurrentClients(t *testing.T) {
	addr, d, shutdown := startTestServer(t)
	defer shutdown()

	const n = 4
	whole := d.Store.Bounds().XY()
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(seed int64) {
			errs <- func() error {
				rng := rand.New(rand.NewSource(seed))
				for conn := 0; conn < 3; conn++ {
					c, err := Dial(addr, nil)
					if err != nil {
						return err
					}
					if got, err := c.Frame(whole, 0); err != nil {
						return err
					} else if int64(got) != d.Store.NumCoeffs() {
						return fmt.Errorf("connection %d: whole-scene frame delivered %d of %d coefficients", conn, got, d.Store.NumCoeffs())
					}
					for f := 0; f < 10; f++ {
						q := geom.RectAround(geom.V2(rng.Float64()*1000, rng.Float64()*1000), 200)
						if _, err := c.Frame(q, rng.Float64()); err != nil {
							return err
						}
					}
					if err := c.Close(); err != nil {
						return err
					}
				}
				return nil
			}()
		}(int64(i))
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
