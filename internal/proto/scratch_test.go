package proto

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/retrieval"
	"repro/internal/wavelet"
)

func randCoeffs(rng *rand.Rand, n int) []Coeff {
	out := make([]Coeff, n)
	for i := range out {
		out[i] = Coeff{
			Object: rng.Int31n(100),
			Vertex: rng.Int31n(10000),
			Delta:  geom.V3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()),
			Pos:    [3]float32{rng.Float32(), rng.Float32() * 100, rng.Float32() * 50},
			Value:  rng.Float32(),
		}
	}
	return out
}

// TestWriteResponsePayloadValidation pins the guard rails: a payload
// whose length disagrees with the count, or a count over the protocol
// bound, is refused before anything hits the wire.
func TestWriteResponsePayloadValidation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteResponsePayload(2, 0, 0, make([]byte, wavelet.WireBytes)); err == nil {
		t.Fatal("count/payload length mismatch accepted")
	}
	if err := w.WriteResponsePayload(MaxCoeffs+1, 0, 0, make([]byte, (MaxCoeffs+1)*wavelet.WireBytes)); err == nil {
		t.Fatal("oversized count accepted")
	}
	if buf.Len() != 0 {
		t.Fatalf("refused frames wrote %d bytes", buf.Len())
	}
}

// TestReadRequestSubsAliasing pins the scratch contract: consecutive
// ReadRequests on one Reader reuse the sub-query slab (no per-frame
// allocation), each fully overwriting the previous frame's values.
func TestReadRequestSubsAliasing(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	first := Request{Subs: []retrieval.SubQuery{
		{Region: geom.R2(1, 1, 2, 2), WMin: 0.5, WMax: 1},
		{Region: geom.R2(3, 3, 4, 4), WMin: 0.25, WMax: 0.75},
	}}
	second := Request{Subs: []retrieval.SubQuery{
		{Region: geom.R2(9, 9, 10, 10), WMin: 0, WMax: 1},
	}}
	if err := w.WriteRequest(first); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRequest(second); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	r.ReadTag()
	got1, err := r.ReadRequest()
	if err != nil {
		t.Fatal(err)
	}
	p1 := &got1.Subs[0]
	r.ReadTag()
	got2, err := r.ReadRequest()
	if err != nil {
		t.Fatal(err)
	}
	if &got2.Subs[0] != p1 {
		t.Fatal("second ReadRequest did not reuse the sub-query slab")
	}
	if got2.Subs[0].Region != second.Subs[0].Region || got2.Subs[0].WMin != 0 || got2.Subs[0].WMax != 1 {
		t.Fatalf("slab slot not overwritten: %+v", got2.Subs[0])
	}
	if got2.Subs[0].Filter != nil {
		t.Fatal("reused slot leaked a Filter")
	}
	// The aliasing is visible through the first request — documented, but
	// assert it so the contract change is deliberate if it ever happens.
	if got1.Subs[0].Region != second.Subs[0].Region {
		t.Fatal("expected got1 to alias the reused slab")
	}
}

// TestFrameCodecAllocBudget pins the steady-state allocation count of
// one response frame through the wire codec: zero on the encode side
// (payload pre-serialized, Writer reused) and zero on the decode side
// (ReadResponseInto with a warm Coeffs slab, Reader reused).
func TestFrameCodecAllocBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	coeffs := randCoeffs(rng, 64)
	payload := EncodeResponsePayload(nil, coeffs)

	var sink bytes.Buffer
	w := NewWriter(&sink)
	if err := w.WriteResponsePayload(len(coeffs), 7, 1, payload); err != nil {
		t.Fatal(err)
	}
	frame := append([]byte(nil), sink.Bytes()...)

	allocs := testing.AllocsPerRun(200, func() {
		sink.Reset()
		if err := w.WriteResponsePayload(len(coeffs), 7, 1, payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("encode path allocates %.1f times per frame, want 0", allocs)
	}

	br := bytes.NewReader(frame)
	r := NewReader(br)
	var resp Response
	decode := func() {
		br.Reset(frame)
		r.Reset(br)
		tag, err := r.ReadTag()
		if err != nil || tag != TagResponse {
			t.Fatalf("tag = %d err = %v", tag, err)
		}
		if err := r.ReadResponseInto(&resp); err != nil {
			t.Fatal(err)
		}
	}
	decode() // warm the Coeffs slab
	allocs = testing.AllocsPerRun(200, decode)
	if allocs != 0 {
		t.Fatalf("decode path allocates %.1f times per frame, want 0", allocs)
	}
	if len(resp.Coeffs) != len(coeffs) || resp.Coeffs[5] != coeffs[5] {
		t.Fatalf("decode scratch diverged: %d coeffs", len(resp.Coeffs))
	}

	// Request decode: the sub-query slab makes repeated frames free too.
	var rbuf bytes.Buffer
	rw := NewWriter(&rbuf)
	req := Request{Subs: []retrieval.SubQuery{
		{Region: geom.R2(1, 1, 2, 2), WMin: 0, WMax: 1},
		{Region: geom.R2(3, 3, 4, 4), WMin: 0, WMax: 1},
	}}
	if err := rw.WriteRequest(req); err != nil {
		t.Fatal(err)
	}
	reqFrame := append([]byte(nil), rbuf.Bytes()...)
	rbr := bytes.NewReader(reqFrame)
	rr := NewReader(rbr)
	readReq := func() {
		rbr.Reset(reqFrame)
		rr.Reset(rbr)
		if tag, err := rr.ReadTag(); err != nil || tag != TagRequest {
			t.Fatalf("tag = %d err = %v", tag, err)
		}
		if _, err := rr.ReadRequest(); err != nil {
			t.Fatal(err)
		}
	}
	readReq() // warm the slab
	allocs = testing.AllocsPerRun(200, readReq)
	if allocs != 0 {
		t.Fatalf("request decode allocates %.1f times per frame, want 0", allocs)
	}
}
