package proto

import (
	"bytes"
	"testing"

	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/retrieval"
)

// FuzzReader throws arbitrary bytes at every message decoder. The
// invariant is totality: decoders must return (value, error) without
// panicking or over-allocating, for any input. Run with
// `go test -fuzz=FuzzReader ./internal/proto` to explore; the seed corpus
// runs as part of the normal test suite.
func FuzzReader(f *testing.F) {
	// Seeds: one valid message of each kind plus junk.
	var hello bytes.Buffer
	NewWriter(&hello).WriteHello(Hello{Version: Version, Objects: 2, Levels: 3, BaseVerts: 6})
	f.Add(hello.Bytes())

	var req bytes.Buffer
	NewWriter(&req).WriteRequest(Request{})
	f.Add(req.Bytes())

	var resp bytes.Buffer
	NewWriter(&resp).WriteResponse(Response{IO: 3, Coeffs: make([]Coeff, 2)})
	f.Add(resp.Bytes())

	var errMsg bytes.Buffer
	NewWriter(&errMsg).WriteError("nope")
	f.Add(errMsg.Bytes())

	var resume bytes.Buffer
	NewWriter(&resume).WriteResume(Resume{Token: 7, AppliedSeq: 3})
	f.Add(resume.Bytes())

	var resumeOK bytes.Buffer
	NewWriter(&resumeOK).WriteResumeOK(ResumeOK{Seq: 3, Delivered: 99})
	f.Add(resumeOK.Bytes())

	var resumeFail bytes.Buffer
	NewWriter(&resumeFail).WriteResumeFail("gone")
	f.Add(resumeFail.Bytes())

	var scene bytes.Buffer
	NewWriter(&scene).WriteSceneSelect("city")
	f.Add(scene.Bytes())

	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})

	// A budgeted request, a truncated response and an all-withheld one.
	f.Add(frameBytes(f, func(w *Writer) error { return w.WriteRequest(budgetedRequest) }))
	f.Add(frameBytes(f, func(w *Writer) error { return w.WriteResponse(truncatedResponse) }))
	f.Add(frameBytes(f, func(w *Writer) error { return w.WriteResponse(Response{Seq: 1, Dropped: 12}) }))
	// An unlimited-budget request with a sub-query, and a request tag
	// with no body behind it.
	f.Add(frameBytes(f, func(w *Writer) error { return w.WriteRequest(Request{Subs: budgetedRequest.Subs}) }))
	f.Add([]byte{TagRequest})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		tag, err := r.ReadTag()
		if err != nil {
			return
		}
		switch tag {
		case TagHello:
			r.ReadHello()
		case TagRequest:
			if req, err := r.ReadRequest(); err == nil && (len(req.Subs) > MaxSubQueries || req.MaxBytes < 0) {
				t.Fatalf("out-of-range request decoded: %d subs, budget %d", len(req.Subs), req.MaxBytes)
			}
		case TagResponse:
			if resp, err := r.ReadResponse(); err == nil && (len(resp.Coeffs) > MaxCoeffs || resp.Dropped < 0) {
				t.Fatalf("out-of-range response decoded: %d coeffs, %d dropped", len(resp.Coeffs), resp.Dropped)
			}
		case TagError:
			r.ReadError()
		case TagResume:
			if res, err := r.ReadResume(); err == nil && res.AppliedSeq < 0 {
				t.Fatalf("negative applied seq decoded: %d", res.AppliedSeq)
			}
		case TagResumeOK:
			r.ReadResumeOK()
		case TagResumeFail:
			if msg, err := r.ReadResumeFail(); err == nil && len(msg) > MaxWireErrorLen {
				t.Fatalf("oversized resume-fail reason decoded: %d bytes", len(msg))
			}
		case TagScene:
			if scene, err := r.ReadSceneSelect(); err == nil {
				if err := engine.ValidateSceneName(scene); err != nil {
					t.Fatalf("invalid scene name decoded: %v", err)
				}
			}
		}
	})
}

// budgetedRequest and truncatedResponse are valid frames exercising the
// byte budget and the withheld count.
var (
	budgetedRequest = Request{
		Subs:     []retrieval.SubQuery{{Region: geom.R2(1, 2, 3, 4), WMin: 0.2, WMax: 0.9}},
		MaxBytes: 4096,
	}
	truncatedResponse = Response{IO: 7, Seq: 2, Dropped: 3, Coeffs: []Coeff{{Object: 1, Vertex: 9, Value: 0.5}}}
)

// frameBytes returns one written frame, tag included.
func frameBytes(f *testing.F, write func(*Writer) error) []byte {
	f.Helper()
	var buf bytes.Buffer
	if err := write(NewWriter(&buf)); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// frameBody strips the tag byte from a written frame, giving the body a
// per-message fuzzer consumes after its own ReadTag.
func frameBody(f *testing.F, write func(*Writer) error) []byte {
	return frameBytes(f, write)[1:]
}

// FuzzReadResponse targets the response decoder: the largest frame, the
// incremental coefficient allocation, and the CRC trailer. The decoder
// must never panic, never allocate unboundedly, and must reject any
// body whose checksum does not match.
func FuzzReadResponse(f *testing.F) {
	f.Add(frameBody(f, func(w *Writer) error {
		return w.WriteResponse(Response{IO: 3, Seq: 1, Coeffs: make([]Coeff, 2)})
	}))
	f.Add(frameBody(f, func(w *Writer) error {
		return w.WriteResponse(Response{})
	}))
	f.Add([]byte{})
	f.Add(frameBody(f, func(w *Writer) error {
		return w.WriteResponse(truncatedResponse)
	}))
	f.Add(frameBody(f, func(w *Writer) error {
		return w.WriteResponse(Response{Seq: 1, Dropped: 12}) // all withheld
	}))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		if resp, err := r.ReadResponse(); err == nil && (len(resp.Coeffs) > MaxCoeffs || resp.Dropped < 0) {
			t.Fatalf("out-of-range response decoded: %d coeffs, %d dropped", len(resp.Coeffs), resp.Dropped)
		}
	})
}

// FuzzReadHello targets the handshake decoder — the one frame a client
// parses before any trust is established.
func FuzzReadHello(f *testing.F) {
	f.Add(frameBody(f, func(w *Writer) error {
		return w.WriteHello(Hello{Version: Version, Objects: 2, Levels: 3, BaseVerts: 6, Token: 42})
	}))
	f.Add(frameBody(f, func(w *Writer) error {
		return w.WriteHello(Hello{Version: Version, Objects: 2, Levels: 3, BaseVerts: 6,
			Token: 42, Scene: "city-01"})
	}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		if h, err := r.ReadHello(); err == nil {
			if h.Version != Version {
				t.Fatalf("foreign version %d accepted", h.Version)
			}
			if len(h.Scene) > engine.MaxSceneName {
				t.Fatalf("oversized scene name decoded: %d bytes", len(h.Scene))
			}
		}
	})
}

// FuzzReadSceneSelect targets the scene-select decoder: a checksummed
// frame that binds a session to a data set, parsed before the session
// has served anything. A decode that succeeds must yield a valid,
// bounded scene name.
func FuzzReadSceneSelect(f *testing.F) {
	f.Add(frameBody(f, func(w *Writer) error {
		return w.WriteSceneSelect("city")
	}))
	f.Add(frameBody(f, func(w *Writer) error {
		return w.WriteSceneSelect("a")
	}))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		if scene, err := r.ReadSceneSelect(); err == nil {
			if err := engine.ValidateSceneName(scene); err != nil {
				t.Fatalf("invalid scene name decoded: %v", err)
			}
		}
	})
}

// FuzzReadResume targets the three resume-handshake decoders (request,
// ok, fail) — checksummed frames parsed while a session credential is
// on the line.
func FuzzReadResume(f *testing.F) {
	f.Add(uint8(0), frameBody(f, func(w *Writer) error {
		return w.WriteResume(Resume{Token: 7, AppliedSeq: 3})
	}))
	f.Add(uint8(1), frameBody(f, func(w *Writer) error {
		return w.WriteResumeOK(ResumeOK{Seq: 3, Delivered: 99})
	}))
	f.Add(uint8(2), frameBody(f, func(w *Writer) error {
		return w.WriteResumeFail("gone")
	}))
	f.Add(uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		r := NewReader(bytes.NewReader(data))
		switch which % 3 {
		case 0:
			if res, err := r.ReadResume(); err == nil && res.AppliedSeq < 0 {
				t.Fatalf("negative applied seq decoded: %d", res.AppliedSeq)
			}
		case 1:
			r.ReadResumeOK()
		case 2:
			if msg, err := r.ReadResumeFail(); err == nil && len(msg) > MaxWireErrorLen {
				t.Fatalf("oversized resume-fail reason decoded: %d bytes", len(msg))
			}
		}
	})
}

// FuzzCRCRejectsFlips checks the integrity guarantee end to end: any
// single-bit flip anywhere past the tag of a checksummed frame — here a
// budgeted request and a truncated response — must be rejected.
func FuzzCRCRejectsFlips(f *testing.F) {
	frames := [][]byte{
		frameBytes(f, func(w *Writer) error { return w.WriteResponse(truncatedResponse) }),
		frameBytes(f, func(w *Writer) error { return w.WriteRequest(budgetedRequest) }),
	}
	f.Add(1, uint8(0))
	f.Add(len(frames[0])-1, uint8(7))
	f.Add(len(frames[1])-1, uint8(3))
	f.Fuzz(func(t *testing.T, pos int, bit uint8) {
		for _, frame := range frames {
			if pos < 1 || pos >= len(frame) { // tag byte is not checksummed
				continue
			}
			mut := append([]byte(nil), frame...)
			mut[pos] ^= 1 << (bit % 8)
			r := NewReader(bytes.NewReader(mut))
			var err error
			switch tag, _ := r.ReadTag(); tag {
			case TagRequest:
				_, err = r.ReadRequest()
			case TagResponse:
				_, err = r.ReadResponse()
			}
			if err == nil {
				t.Fatalf("bit flip at byte %d bit %d of tag %d went undetected", pos, bit%8, mut[0])
			}
		}
	})
}
