// Package proto defines the binary wire protocol between a mobile client
// and the retrieval server for the networked demonstration: a hello
// handshake carrying the dataset schema and a session token, window-query
// requests (the sub-query sets Algorithm 1 produces), streamed
// coefficient records, and a session-resume exchange that lets a client
// survive the link failures a wireless deployment treats as routine.
// Framing is little-endian with explicit lengths, written through
// bufio so each message costs one flush — mirroring the
// one-connection-per-query cost model of the paper.
//
// Version 2 appends a CRC32-C trailer to every frame that carries
// retrieval state (Request, Response, Resume, ResumeOK, ResumeFail), so
// corruption on a degraded link is detected as ErrChecksum instead of
// being misparsed into the index search path. Hello, Error, and Bye stay
// trailer-free: they carry no state whose corruption could desync a
// session, and keeping Hello plain lets a version mismatch be reported
// before any v2 machinery engages.
package proto

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"strings"
	"sync"

	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/retrieval"
	"repro/internal/wavelet"
)

// Message type tags.
const (
	TagHello      = byte(1)
	TagRequest    = byte(2)
	TagResponse   = byte(3)
	TagError      = byte(4)
	TagBye        = byte(5)
	TagResume     = byte(6)
	TagResumeOK   = byte(7)
	TagResumeFail = byte(8)
	TagScene      = byte(9)
)

// Version is bumped on incompatible wire changes. Version 2 added CRC
// frame trailers, the session token in Hello, the sequence number in
// Response, and the resume exchange. Version 3 added the scene name to
// Hello and the scene-select exchange (TagScene) for multi-scene
// engines. Version 4 added a second, budgeted request/response pair
// for ABR streaming. Version 5 folds the pairs into one: every request
// carries its byte budget in place of the speed the server never read,
// and every response says how many coefficients it withheld.
const Version = 5

// MaxSubQueries bounds one request; Algorithm 1 produces at most 5
// sub-queries (overlap band + 4 difference rectangles), so anything
// larger indicates a corrupted stream.
const MaxSubQueries = 64

// MaxCoeffs bounds one response (sanity limit against corrupted length
// prefixes).
const MaxCoeffs = 1 << 24

// MaxWireErrorLen caps error strings sent to clients: long enough for
// any protocol diagnostic, short enough that an error reply can never
// balloon into a payload (and always below the reader's own limit, so a
// conforming writer can never emit an error frame the peer rejects).
const MaxWireErrorLen = 256

// ErrChecksum reports a frame whose CRC trailer did not match its body:
// the bytes were delivered but damaged in transit. The connection is
// desynchronized and must be abandoned (and, with a resumable session,
// re-established).
var ErrChecksum = errors.New("proto: frame checksum mismatch")

// crcTable is the Castagnoli polynomial, hardware-accelerated on the
// platforms that matter.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// SanitizeWireError prepares an internal error for the wire: the string
// is capped at MaxWireErrorLen bytes and every non-printable or
// non-ASCII byte is replaced, so a corrupted request can never reflect
// binary garbage (or multi-line log-forgery text) back over the
// protocol or into peers' logs. Every writer of error frames shares it.
func SanitizeWireError(err error) string {
	msg := err.Error()
	if len(msg) > MaxWireErrorLen {
		msg = msg[:MaxWireErrorLen]
	}
	return strings.Map(func(r rune) rune {
		if r < 0x20 || r > 0x7e {
			return '?'
		}
		return r
	}, msg)
}

// Hello announces the dataset schema: the client needs the subdivision
// depth, base-mesh vertex count, and object count to set up
// reconstructors, and the space bounds to navigate. Token identifies the
// session for a later resume (zero from non-resuming peers, e.g. tests
// that frame messages into a buffer). Scene names the engine scene the
// parameters describe; a server re-sends a hello (same token) after a
// successful scene-select exchange.
type Hello struct {
	Version   int32
	Objects   int32
	Levels    int32
	BaseVerts int32 // vertices of the shared base mesh (octahedron: 6)
	Space     geom.Rect2
	Token     uint64
	Scene     string
}

// Request carries the sub-queries of one query frame and its byte
// budget: MaxBytes = 0 is unlimited, otherwise the server answers with
// at most MaxBytes of coefficient payload, truncated deterministically
// along the sub-query order. A server-side cap may lower the budget
// further (Server.SetBudgetCap).
type Request struct {
	Subs     []retrieval.SubQuery
	MaxBytes int64
}

// Resume asks the server to adopt the delivered-set of a recently closed
// session. AppliedSeq is the sequence number of the last response the
// client fully applied; a server holding the session one frame ahead
// (response sent but lost) rolls that frame's deliveries back so they
// are re-sent rather than lost in the gap.
type Resume struct {
	Token      uint64
	AppliedSeq int64
}

// ResumeOK confirms adoption: Seq echoes the (post-rollback) sequence
// number, which always equals the client's AppliedSeq; Delivered is the
// size of the adopted delivered-set, a cheap cross-check.
type ResumeOK struct {
	Seq       int64
	Delivered int64
}

// Coeff is one coefficient on the wire: a response frame's records are
// wavelet.WireRecord encodings, WireBytes each, so the store, the frame
// and the simulated byte accounting share one layout. Whether a record
// is a base pseudo-coefficient follows from Vertex < Hello.BaseVerts.
type Coeff = wavelet.WireRecord

// respHeadBytes is a response frame's length before its records: the
// tag, then the count, io, seq and dropped fields.
const respHeadBytes = 1 + 4 + 8 + 8 + 8

// respChunkBytes bounds how far a response decoder reads ahead of what
// the stream has delivered: its record buffer grows to at most twice
// the bytes already read, or respChunkBytes if that is more. A frame of
// up to 64 KB is read in one go; a corrupted-but-in-range count cannot
// allocate gigabytes before the stream runs dry.
const respChunkBytes = 64 << 10

// Response streams the coefficients answering one request. Seq numbers
// the responses of one session lineage (1 for the first frame), letting
// a resuming client prove how far it got. Dropped counts the
// coefficients the request matched but the server withheld — cut by the
// byte budget or the server's cap, or unreadable on a damaged page —
// none of which the session marks delivered, so a later request for the
// same window receives them.
type Response struct {
	Coeffs  []Coeff
	IO      int64 // server-side index node reads (for experiment parity)
	Seq     int64
	Dropped int64
}

// Writer frames messages onto a stream.
type Writer struct {
	w       *bufio.Writer
	scratch [respHeadBytes]byte
	crc     uint32
	hashing bool
}

// NewWriter wraps a connection.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

// Reset discards unflushed state and retargets the writer at dst,
// keeping the buffer — the recycling hook for benchmark and pooling
// harnesses that would otherwise pay a fresh bufio buffer per stream.
func (w *Writer) Reset(dst io.Writer) {
	w.w.Reset(dst)
	w.hashing = false
}

// beginCRC starts accumulating a frame-body checksum.
func (w *Writer) beginCRC() { w.crc = 0; w.hashing = true }

// endCRC stops accumulating and appends the trailer (excluded from its
// own sum).
func (w *Writer) endCRC() {
	w.hashing = false
	binary.LittleEndian.PutUint32(w.scratch[:4], w.crc)
	w.w.Write(w.scratch[:4])
}

func (w *Writer) raw(b []byte) {
	w.w.Write(b)
	if w.hashing {
		w.crc = crc32.Update(w.crc, crcTable, b)
	}
}

func (w *Writer) u8(v byte) {
	w.scratch[0] = v
	w.raw(w.scratch[:1])
}

func (w *Writer) u32(v uint32) {
	binary.LittleEndian.PutUint32(w.scratch[:4], v)
	w.raw(w.scratch[:4])
}

func (w *Writer) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.scratch[:8], v)
	w.raw(w.scratch[:8])
}

func (w *Writer) i32(v int32)   { w.u32(uint32(v)) }
func (w *Writer) i64(v int64)   { w.u64(uint64(v)) }
func (w *Writer) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w *Writer) str(s string) {
	w.i32(int32(len(s)))
	if w.hashing {
		w.crc = crc32.Update(w.crc, crcTable, []byte(s))
	}
	w.w.WriteString(s)
}

// WriteHello sends the handshake.
func (w *Writer) WriteHello(h Hello) error {
	if len(h.Scene) > engine.MaxSceneName {
		return fmt.Errorf("proto: scene name of %d bytes exceeds limit %d",
			len(h.Scene), engine.MaxSceneName)
	}
	w.u8(TagHello)
	w.i32(h.Version)
	w.i32(h.Objects)
	w.i32(h.Levels)
	w.i32(h.BaseVerts)
	for _, f := range []float64{h.Space.Min.X, h.Space.Min.Y, h.Space.Max.X, h.Space.Max.Y} {
		w.f64(f)
	}
	w.u64(h.Token)
	w.str(h.Scene)
	return w.w.Flush()
}

// WriteSceneSelect asks the server to switch this connection to a named
// scene; the server answers with a fresh hello for it (or an error).
// Valid only before the first request or resume of a connection. The
// frame carries a CRC trailer: serving a corrupted name would bind the
// session to the wrong data set.
func (w *Writer) WriteSceneSelect(scene string) error {
	if err := engine.ValidateSceneName(scene); err != nil {
		return err
	}
	w.u8(TagScene)
	w.beginCRC()
	w.str(scene)
	w.endCRC()
	return w.w.Flush()
}

// WriteRequest sends one query frame: the byte budget, then the
// sub-queries, under a CRC trailer — a corrupted budget must surface as
// ErrChecksum, not as a silently absurd truncation.
func (w *Writer) WriteRequest(r Request) error {
	if len(r.Subs) > MaxSubQueries {
		return fmt.Errorf("proto: %d sub-queries exceeds limit %d", len(r.Subs), MaxSubQueries)
	}
	if r.MaxBytes < 0 {
		return fmt.Errorf("proto: negative byte budget %d", r.MaxBytes)
	}
	w.u8(TagRequest)
	w.beginCRC()
	w.i64(r.MaxBytes)
	w.i32(int32(len(r.Subs)))
	for _, s := range r.Subs {
		for _, f := range []float64{
			s.Region.Min.X, s.Region.Min.Y, s.Region.Max.X, s.Region.Max.Y,
			s.WMin, s.WMax,
		} {
			w.f64(f)
		}
	}
	w.endCRC()
	return w.w.Flush()
}

// WriteResponse sends the response for one request: its records
// encoded by EncodeResponsePayload, framed by writeResponsePayload.
func (w *Writer) WriteResponse(r Response) error {
	return w.writeResponsePayload(len(r.Coeffs), r.IO, r.Seq, r.Dropped, EncodeResponsePayload(nil, r.Coeffs))
}

// EncodeResponsePayload appends the wire encoding of the coefficient
// records (the section of a response frame after its header) to buf.
func EncodeResponsePayload(buf []byte, coeffs []Coeff) []byte {
	for i := range coeffs {
		buf = wavelet.AppendWire(buf, &coeffs[i])
	}
	return buf
}

// checkResponse refuses a response the reader would reject: more
// records than MaxCoeffs, or a negative dropped count.
func checkResponse(count int, dropped int64) error {
	if count > MaxCoeffs {
		return fmt.Errorf("proto: response of %d coefficients exceeds limit", count)
	}
	if dropped < 0 {
		return fmt.Errorf("proto: negative dropped count %d", dropped)
	}
	return nil
}

// putResponseHead writes a response frame's header, tag first, into
// head[:respHeadBytes].
func putResponseHead(head []byte, count int, nodeIO, seq, dropped int64) {
	head = head[:respHeadBytes]
	head[0] = TagResponse
	binary.LittleEndian.PutUint32(head[1:], uint32(count))
	binary.LittleEndian.PutUint64(head[5:], uint64(nodeIO))
	binary.LittleEndian.PutUint64(head[13:], uint64(seq))
	binary.LittleEndian.PutUint64(head[21:], uint64(dropped))
}

// beginResponseFrame resets buf to the room for a response frame's
// header, with capacity for records more records and the trailer
// behind it. The caller appends the records' wire bytes, then
// finishResponseFrame completes the frame — so a frame is assembled in
// one buffer and leaves in one write.
func beginResponseFrame(buf []byte, records int) []byte {
	return slices.Grow(buf[:0], respHeadBytes+records*wavelet.WireBytes+4)[:respHeadBytes]
}

// finishResponseFrame fills in the header of a frame beginResponseFrame
// began — its count from the records appended since — and appends the
// CRC trailer. The bytes are those WriteResponse sends for the same
// response.
func finishResponseFrame(frame []byte, nodeIO, seq, dropped int64) ([]byte, error) {
	count := (len(frame) - respHeadBytes) / wavelet.WireBytes
	if err := checkResponse(count, dropped); err != nil {
		return frame, err
	}
	putResponseHead(frame, count, nodeIO, seq, dropped)
	return binary.LittleEndian.AppendUint32(frame, crc32.Checksum(frame[1:], crcTable)), nil
}

// writeFrame writes a frame assembled whole in one Write on the
// stream: the bufio buffer is empty between messages, so a frame larger
// than it goes straight through and a smaller one leaves in the Flush.
func (w *Writer) writeFrame(frame []byte) error {
	w.w.Write(frame)
	return w.w.Flush()
}

// WriteResponsePayload writes a response frame that withholds nothing
// and whose coefficient section is a pre-encoded payload
// (EncodeResponsePayload bytes for count records) — the frame
// WriteResponse of the equivalent Coeffs slice sends.
func (w *Writer) WriteResponsePayload(count int, nodeIO, seq int64, payload []byte) error {
	return w.writeResponsePayload(count, nodeIO, seq, 0, payload)
}

// writeResponsePayload is WriteResponsePayload reporting dropped
// withheld coefficients. It streams the frame through the bufio buffer;
// the server instead assembles each frame whole (beginResponseFrame)
// and writes it once.
func (w *Writer) writeResponsePayload(count int, nodeIO, seq, dropped int64, payload []byte) error {
	if err := checkResponse(count, dropped); err != nil {
		return err
	}
	if len(payload) != count*wavelet.WireBytes {
		return fmt.Errorf("proto: payload of %d bytes does not hold %d records", len(payload), count)
	}
	putResponseHead(w.scratch[:], count, nodeIO, seq, dropped)
	w.w.Write(w.scratch[:1])
	w.beginCRC()
	w.raw(w.scratch[1:respHeadBytes])
	w.raw(payload)
	w.endCRC()
	return w.w.Flush()
}

// WriteResume asks to adopt a previous session.
func (w *Writer) WriteResume(r Resume) error {
	w.u8(TagResume)
	w.beginCRC()
	w.u64(r.Token)
	w.i64(r.AppliedSeq)
	w.endCRC()
	return w.w.Flush()
}

// WriteResumeOK confirms a resume.
func (w *Writer) WriteResumeOK(r ResumeOK) error {
	w.u8(TagResumeOK)
	w.beginCRC()
	w.i64(r.Seq)
	w.i64(r.Delivered)
	w.endCRC()
	return w.w.Flush()
}

// WriteResumeFail declines a resume; the reason is capped and expected
// to be pre-sanitized (see SanitizeWireError).
func (w *Writer) WriteResumeFail(reason string) error {
	if len(reason) > MaxWireErrorLen {
		reason = reason[:MaxWireErrorLen]
	}
	w.u8(TagResumeFail)
	w.beginCRC()
	w.str(reason)
	w.endCRC()
	return w.w.Flush()
}

// WriteError sends an error message, capped at MaxWireErrorLen so no
// conforming writer can emit a frame the reader's length limit rejects.
func (w *Writer) WriteError(msg string) error {
	if len(msg) > MaxWireErrorLen {
		msg = msg[:MaxWireErrorLen]
	}
	w.u8(TagError)
	w.str(msg)
	return w.w.Flush()
}

// WriteBye announces an orderly shutdown.
func (w *Writer) WriteBye() error {
	w.u8(TagBye)
	return w.w.Flush()
}

// Reader parses framed messages from a stream.
type Reader struct {
	r       *bufio.Reader
	scratch [8]byte
	crc     uint32
	hashing bool
	// subs is the reusable sub-query slab behind ReadRequest — see its
	// aliasing contract.
	subs []retrieval.SubQuery
	// records is the buffer ReadResponseInto reads a frame's records
	// section into before decoding it.
	records []byte
}

// NewReader wraps a connection.
func NewReader(r io.Reader) *Reader { return &Reader{r: bufio.NewReader(r)} }

// Reset retargets the reader at src, keeping its buffers (bufio buffer,
// sub-query slab and record buffer) — the recycling hook for benchmark
// and pooling harnesses. Any partially read frame state is discarded.
func (r *Reader) Reset(src io.Reader) {
	r.r.Reset(src)
	r.hashing = false
}

// Buffered returns the number of bytes the Reader has read from its
// stream but not yet consumed by a decoder.
func (r *Reader) Buffered() int { return r.r.Buffered() }

// WriteBufferedTo drains the Reader's buffered bytes into w, returning
// how many moved. A proxy that stops decoding a stream mid-connection
// (the cluster gateway after its routing handshake) must flush this
// remainder before splicing the raw connections together, or bytes the
// Reader had already pulled off the socket would be lost.
func (r *Reader) WriteBufferedTo(w io.Writer) (int64, error) {
	n := r.r.Buffered()
	if n == 0 {
		return 0, nil
	}
	b, err := r.r.Peek(n)
	if err != nil {
		return 0, err
	}
	m, werr := w.Write(b)
	r.r.Discard(m)
	return int64(m), werr
}

// bufPool recycles the transient byte buffers string decoding reads
// into (the string itself is always a fresh copy, so pooled buffers
// never escape). Oversized requests bypass the pool — see readStringN.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 256)
	return &b
}}

// maxPooledBuf bounds what readStringN returns to the pool, so one
// maximum-length error string doesn't pin a megabyte per idle reader.
const maxPooledBuf = 64 << 10

// readStringN reads exactly n bytes (folded into the running checksum)
// and returns them as a string, routing the transient buffer through
// bufPool.
func (r *Reader) readStringN(n int) (string, error) {
	if n == 0 {
		return "", nil
	}
	if n > maxPooledBuf {
		buf := make([]byte, n)
		if err := r.fill(buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}
	bp := bufPool.Get().(*[]byte)
	buf := *bp
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	err := r.fill(buf)
	s := ""
	if err == nil {
		s = string(buf)
	}
	*bp = buf
	bufPool.Put(bp)
	return s, err
}

// beginCRC starts accumulating a frame-body checksum.
func (r *Reader) beginCRC() { r.crc = 0; r.hashing = true }

// checkCRC reads the trailer and compares it against the accumulated
// body sum.
func (r *Reader) checkCRC() error {
	r.hashing = false
	want := r.crc
	if _, err := io.ReadFull(r.r, r.scratch[:4]); err != nil {
		return err
	}
	if got := binary.LittleEndian.Uint32(r.scratch[:4]); got != want {
		return ErrChecksum
	}
	return nil
}

// fill reads into buf and folds it into the running checksum.
func (r *Reader) fill(buf []byte) error {
	if _, err := io.ReadFull(r.r, buf); err != nil {
		return err
	}
	if r.hashing {
		r.crc = crc32.Update(r.crc, crcTable, buf)
	}
	return nil
}

func (r *Reader) u8() (byte, error) {
	if err := r.fill(r.scratch[:1]); err != nil {
		return 0, err
	}
	return r.scratch[0], nil
}

func (r *Reader) u32() (uint32, error) {
	if err := r.fill(r.scratch[:4]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(r.scratch[:4]), nil
}

func (r *Reader) u64() (uint64, error) {
	if err := r.fill(r.scratch[:8]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(r.scratch[:8]), nil
}

func (r *Reader) i32() (int32, error) {
	v, err := r.u32()
	return int32(v), err
}

func (r *Reader) i64() (int64, error) {
	v, err := r.u64()
	return int64(v), err
}

func (r *Reader) f64() (float64, error) {
	v, err := r.u64()
	return math.Float64frombits(v), err
}

func (r *Reader) f32() (float32, error) {
	v, err := r.u32()
	return math.Float32frombits(v), err
}

// ReadTag returns the next message tag.
func (r *Reader) ReadTag() (byte, error) {
	r.hashing = false
	return r.u8()
}

// ReadHello parses a hello body (after its tag).
func (r *Reader) ReadHello() (Hello, error) {
	var h Hello
	var err error
	if h.Version, err = r.i32(); err != nil {
		return h, err
	}
	if h.Objects, err = r.i32(); err != nil {
		return h, err
	}
	if h.Levels, err = r.i32(); err != nil {
		return h, err
	}
	if h.BaseVerts, err = r.i32(); err != nil {
		return h, err
	}
	var fs [4]float64
	for i := range fs {
		if fs[i], err = r.f64(); err != nil {
			return h, err
		}
	}
	h.Space = geom.Rect2{Min: geom.V2(fs[0], fs[1]), Max: geom.V2(fs[2], fs[3])}
	if h.Token, err = r.u64(); err != nil {
		return h, err
	}
	if h.Scene, err = r.readSceneName(); err != nil {
		return h, err
	}
	if h.Version != Version {
		return h, fmt.Errorf("proto: version %d, want %d", h.Version, Version)
	}
	return h, nil
}

// readSceneName reads a length-prefixed scene name bounded by
// engine.MaxSceneName (empty = unnamed/default scene).
func (r *Reader) readSceneName() (string, error) {
	n, err := r.i32()
	if err != nil {
		return "", err
	}
	if n < 0 || n > engine.MaxSceneName {
		return "", fmt.Errorf("proto: bad scene name length %d", n)
	}
	return r.readStringN(int(n))
}

// ReadSceneSelect parses a scene-select body (after its tag), verifies
// its checksum, then validates the name.
func (r *Reader) ReadSceneSelect() (string, error) {
	r.beginCRC()
	scene, err := r.readSceneName()
	if err != nil {
		return "", err
	}
	if err := r.checkCRC(); err != nil {
		return "", err
	}
	// Validate only after the checksum: a corrupted frame should be
	// reported as corruption, not as an invalid name.
	if err := engine.ValidateSceneName(scene); err != nil {
		return "", err
	}
	return scene, nil
}

// finite rejects the NaN/Inf values a corrupted or hostile frame could
// otherwise push into the index search path.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// ReadRequest parses and validates a request body (after its tag): the
// checksum must match, the byte budget must be non-negative, and every
// sub-query rectangle must be finite and non-inverted with WMin ≤ WMax.
//
// Aliasing: the returned Request's Subs slice is the Reader's reusable
// scratch, valid only until the next ReadRequest on this Reader. The
// serving loop consumes each request before reading the next frame;
// callers that retain sub-queries across frames must copy them.
func (r *Reader) ReadRequest() (Request, error) {
	var req Request
	var err error
	r.beginCRC()
	if req.MaxBytes, err = r.i64(); err != nil {
		return req, err
	}
	n, err := r.i32()
	if err != nil {
		return req, err
	}
	if n < 0 || n > MaxSubQueries {
		return req, fmt.Errorf("proto: bad sub-query count %d", n)
	}
	if cap(r.subs) < int(n) {
		r.subs = make([]retrieval.SubQuery, n)
	}
	req.Subs = r.subs[:n]
	for i := range req.Subs {
		var fs [6]float64
		for j := range fs {
			if fs[j], err = r.f64(); err != nil {
				return req, err
			}
		}
		// Whole-struct assignment: a reused slab slot must not leak the
		// previous frame's Filter.
		req.Subs[i] = retrieval.SubQuery{
			Region: geom.Rect2{Min: geom.V2(fs[0], fs[1]), Max: geom.V2(fs[2], fs[3])},
			WMin:   fs[4],
			WMax:   fs[5],
		}
	}
	if err := r.checkCRC(); err != nil {
		return req, err
	}
	// Validate only after the checksum: a corrupted frame is reported as
	// corruption first, garbage fields second.
	if req.MaxBytes < 0 {
		return req, fmt.Errorf("proto: negative byte budget %d", req.MaxBytes)
	}
	for i, s := range req.Subs {
		if !finite(s.Region.Min.X, s.Region.Min.Y, s.Region.Max.X, s.Region.Max.Y, s.WMin, s.WMax) {
			return req, fmt.Errorf("proto: sub-query %d has non-finite bounds", i)
		}
		if s.Region.Max.X < s.Region.Min.X || s.Region.Max.Y < s.Region.Min.Y {
			return req, fmt.Errorf("proto: sub-query %d has an inverted rectangle", i)
		}
		if s.WMin > s.WMax {
			return req, fmt.Errorf("proto: sub-query %d has wmin %g > wmax %g", i, s.WMin, s.WMax)
		}
	}
	return req, nil
}

// ReadResponse parses a response body (after its tag) and verifies its
// checksum. The response is freshly allocated; steady-state readers use
// ReadResponseInto to recycle the coefficient slab.
func (r *Reader) ReadResponse() (Response, error) {
	var resp Response
	err := r.ReadResponseInto(&resp)
	return resp, err
}

// ReadResponseInto is ReadResponse decoding into resp, reusing its
// Coeffs slab (truncated, then appended to); the other fields are
// overwritten. On error resp holds whatever partial state was decoded
// and must not be used.
func (r *Reader) ReadResponseInto(resp *Response) error {
	records, err := r.readResponse(resp, r.records)
	r.records = records[:0]
	if err != nil {
		return err
	}
	// The records section has arrived in full, so the slab is sized from
	// what the stream delivered, not from the count alone.
	resp.Coeffs = slices.Grow(resp.Coeffs[:0], len(records)/wavelet.WireBytes)
	for ; len(records) > 0; records = records[wavelet.WireBytes:] {
		resp.Coeffs = append(resp.Coeffs, wavelet.DecodeWire(records))
	}
	return nil
}

// readResponse parses a response body (after its tag): the header into
// resp's IO, Seq and Dropped (Coeffs is left alone), and the records
// section into buf, which it returns resliced to the section's bytes.
// The checksum is verified before anything is returned as valid.
//
// Once the bytes bufio already holds are used up, the records and the
// trailer are read from the stream straight into buf, in as few reads
// as the stream allows. buf grows only as far as the stream has backed
// it — to twice the bytes read, or respChunkBytes if that is more — so
// a corrupted-but-in-range count cannot allocate gigabytes before the
// stream runs dry, and an honest frame of a few hundred records is one
// read. On error buf holds the bytes read before the failure.
func (r *Reader) readResponse(resp *Response, buf []byte) ([]byte, error) {
	r.beginCRC()
	n, err := r.i32()
	if err != nil {
		return buf[:0], err
	}
	if n < 0 || n > MaxCoeffs {
		return buf[:0], fmt.Errorf("proto: bad coefficient count %d", n)
	}
	if resp.IO, err = r.i64(); err != nil {
		return buf[:0], err
	}
	if resp.Seq, err = r.i64(); err != nil {
		return buf[:0], err
	}
	if resp.Dropped, err = r.i64(); err != nil {
		return buf[:0], err
	}
	size := int(n)*wavelet.WireBytes + 4 // the records, then the trailer
	buf = buf[:0]
	for got := 0; got < size; got = len(buf) {
		end := min(size, max(2*got, respChunkBytes))
		buf = slices.Grow(buf, end-got)[:end]
		k, err := io.ReadFull(r.r, buf[got:])
		if err != nil {
			return buf[:got+k], err
		}
	}
	records := buf[:size-4]
	r.hashing = false
	if binary.LittleEndian.Uint32(buf[size-4:]) != crc32.Update(r.crc, crcTable, records) {
		return records, ErrChecksum
	}
	if resp.Dropped < 0 {
		return records, fmt.Errorf("proto: negative dropped count %d", resp.Dropped)
	}
	return records, nil
}

// ReadResume parses a resume body (after its tag) and verifies its
// checksum.
func (r *Reader) ReadResume() (Resume, error) {
	var res Resume
	var err error
	r.beginCRC()
	if res.Token, err = r.u64(); err != nil {
		return res, err
	}
	if res.AppliedSeq, err = r.i64(); err != nil {
		return res, err
	}
	if err := r.checkCRC(); err != nil {
		return res, err
	}
	if res.AppliedSeq < 0 {
		return res, fmt.Errorf("proto: negative resume sequence %d", res.AppliedSeq)
	}
	return res, nil
}

// ReadResumeOK parses a resume confirmation (after its tag) and verifies
// its checksum.
func (r *Reader) ReadResumeOK() (ResumeOK, error) {
	var ok ResumeOK
	var err error
	r.beginCRC()
	if ok.Seq, err = r.i64(); err != nil {
		return ok, err
	}
	if ok.Delivered, err = r.i64(); err != nil {
		return ok, err
	}
	if err := r.checkCRC(); err != nil {
		return ok, err
	}
	return ok, nil
}

// ReadResumeFail parses a resume rejection (after its tag) and verifies
// its checksum.
func (r *Reader) ReadResumeFail() (string, error) {
	r.beginCRC()
	msg, err := r.readString()
	if err != nil {
		return "", err
	}
	if err := r.checkCRC(); err != nil {
		return "", err
	}
	return msg, nil
}

// ReadError parses an error body (after its tag).
func (r *Reader) ReadError() (string, error) {
	return r.readString()
}

func (r *Reader) readString() (string, error) {
	n, err := r.i32()
	if err != nil {
		return "", err
	}
	if n < 0 || n > 1<<20 {
		return "", fmt.Errorf("proto: bad error length %d", n)
	}
	return r.readStringN(int(n))
}
