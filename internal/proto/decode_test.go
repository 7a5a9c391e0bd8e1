package proto

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/wavelet"
)

// responseFrame returns WriteResponse's bytes for resp, tag included.
func responseFrame(t testing.TB, resp Response) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := NewWriter(&buf).WriteResponse(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// chunkRecords is how many records fit the decoder's first read-ahead
// (respChunkBytes), the trailer included.
const chunkRecords = (respChunkBytes - 4) / wavelet.WireBytes

// readResponseFrame decodes one response frame through r, which has been
// pointed at it.
func readResponseFrame(r *Reader, resp *Response) error {
	tag, err := r.ReadTag()
	if err != nil {
		return err
	}
	if tag != TagResponse {
		return errors.New("not a response frame")
	}
	return r.ReadResponseInto(resp)
}

// TestReadResponseChunkBoundaries round-trips responses whose record
// counts sit on and around the decoder's chunk size, through one Reader
// and one Response so the retained chunk and slab are reused across
// sizes in both directions.
func TestReadResponseChunkBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	r := NewReader(bytes.NewReader(nil))
	var got Response
	for _, n := range []int{4097, 0, 1, chunkRecords - 1, chunkRecords, chunkRecords + 1, 2 * chunkRecords, 4097, 1} {
		want := Response{IO: rng.Int63n(1000), Seq: rng.Int63n(1000), Coeffs: randCoeffs(rng, n)}
		r.Reset(bytes.NewReader(responseFrame(t, want)))
		if err := readResponseFrame(r, &got); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got.IO != want.IO || got.Seq != want.Seq || !slices.Equal(got.Coeffs, want.Coeffs) {
			t.Fatalf("n=%d: decoded %d coefficients (io %d seq %d), want %d (io %d seq %d) or a field differs",
				n, len(got.Coeffs), got.IO, got.Seq, n, want.IO, want.Seq)
		}
		if r.Buffered() != 0 {
			t.Fatalf("n=%d: %d bytes left unread", n, r.Buffered())
		}
	}
}

// TestReadResponseTruncatedMidChunk cuts a multi-chunk frame at every
// kind of place — inside the first chunk, on a chunk boundary, inside a
// later chunk, inside the trailer — and requires an error each time: the
// records decoded before the cut never come back as a valid response.
func TestReadResponseTruncatedMidChunk(t *testing.T) {
	frame := responseFrame(t, Response{IO: 3, Seq: 9, Coeffs: randCoeffs(rand.New(rand.NewSource(5)), 3*chunkRecords)})
	const header = 1 + 4 + 8 + 8 + 8 // tag, count, io, seq, dropped
	chunk := respChunkBytes
	for _, cut := range []int{header, header + 100, header + chunk, header + chunk + wavelet.WireBytes/2, len(frame) - 5, len(frame) - 2} {
		var resp Response
		err := readResponseFrame(NewReader(bytes.NewReader(frame[:cut])), &resp)
		if err == nil {
			t.Fatalf("frame cut at %d of %d bytes decoded without error", cut, len(frame))
		}
	}
}

// TestReadResponseCRCCoversEveryChunk flips one byte at a time across a
// multi-chunk frame — every position of the header, of a record
// straddling each chunk boundary, and of the trailer, plus a stride
// through the rest — and requires ErrChecksum (or, for the count field,
// any error): chunked hashing must cover exactly the bytes the
// per-field reads did.
func TestReadResponseCRCCoversEveryChunk(t *testing.T) {
	frame := responseFrame(t, Response{IO: 3, Seq: 9, Coeffs: randCoeffs(rand.New(rand.NewSource(6)), 2*chunkRecords+7)})
	const header = 1 + 4 + 8 + 8 + 8 // tag, count, io, seq, dropped
	chunk := respChunkBytes
	check := func(pos int) {
		mut := slices.Clone(frame)
		mut[pos] ^= 0x40
		var resp Response
		err := readResponseFrame(NewReader(bytes.NewReader(mut)), &resp)
		if err == nil {
			t.Fatalf("flipped byte %d of %d went undetected", pos, len(frame))
		}
		if pos >= 1+4 && !errors.Is(err, ErrChecksum) {
			t.Fatalf("flipped byte %d: %v, want ErrChecksum", pos, err)
		}
	}
	for pos := 1; pos < header; pos++ { // the tag byte is not checksummed
		check(pos)
	}
	for _, edge := range []int{header + chunk, header + 2*chunk} {
		for pos := edge - wavelet.WireBytes; pos < edge+wavelet.WireBytes; pos++ {
			check(pos)
		}
	}
	for pos := header; pos < len(frame)-4; pos += 37 {
		check(pos)
	}
	for pos := len(frame) - 4; pos < len(frame); pos++ {
		check(pos)
	}
}

// TestReadResponseLyingCountAllocatesOneChunk is the "must not
// pre-allocate gigabytes" rule: a header announcing the largest legal
// count over a stream holding a few records fails having sized Coeffs
// and the record buffer for one chunk at most.
func TestReadResponseLyingCountAllocatesOneChunk(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.u8(TagResponse)
	w.i32(MaxCoeffs)
	w.i64(0) // io
	w.i64(1) // seq
	w.i64(0) // dropped
	w.raw(EncodeResponsePayload(nil, randCoeffs(rand.New(rand.NewSource(8)), 10)))
	if err := w.w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	var resp Response
	if err := readResponseFrame(r, &resp); err == nil {
		t.Fatal("short stream under a lying count decoded without error")
	}
	if cap(resp.Coeffs) > chunkRecords {
		t.Fatalf("Coeffs sized for %d records before the stream ran dry, want at most one chunk (%d)", cap(resp.Coeffs), chunkRecords)
	}
	if cap(r.records) > respChunkBytes {
		t.Fatalf("record buffer sized for %d bytes before the stream ran dry, want at most one chunk (%d)", cap(r.records), respChunkBytes)
	}
}

// BenchmarkReadResponseInto decodes a 600-coefficient response frame —
// walk.mem's mean delivery per frame — with a reused Reader and slab.
func BenchmarkReadResponseInto(b *testing.B) {
	frame := responseFrame(b, Response{IO: 40, Seq: 1, Coeffs: randCoeffs(rand.New(rand.NewSource(1)), 600)})
	br := bytes.NewReader(frame)
	r := NewReader(br)
	var resp Response
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.Reset(frame)
		r.Reset(br)
		if err := readResponseFrame(r, &resp); err != nil {
			b.Fatal(err)
		}
	}
}
