// Package persist is the durability layer under the serving stack: a
// CRC32-C-framed, versioned record format plus the file primitives a
// crash-safe server needs — atomic whole-file checkpoints (temp file +
// fsync + rename), an append-only journal with torn-tail truncation on
// recovery, and corruption quarantine (a damaged record is skipped and
// counted, never parsed and never panicked over).
//
// File layout: an 8-byte header (magic, version), then records. Each
// record is [length u32][crc32c u32][payload]; the CRC covers the
// payload only, so a record either decodes to exactly the bytes that
// were written or is rejected. Recovery distinguishes two failure
// shapes:
//
//   - Torn tail: the file ends mid-record (a crash during append). The
//     tail carries no trustworthy framing, so recovery truncates the
//     file back to the last whole record and counts one truncation.
//   - Quarantined record: a record is complete (its length is
//     plausible and its bytes are all present) but its CRC does not
//     match. The record is skipped and counted; scanning continues at
//     the next frame boundary.
//
// A length field larger than MaxRecord is indistinguishable from torn
// framing — nothing after it can be trusted — so it is treated as a
// torn tail, not a quarantine.
//
// The package is stdlib-only and knows nothing about what the payloads
// mean; the engine layers scene checkpoints and the session journal on
// top of it.
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

const (
	// Magic identifies a persist-format file ("MARP": Motion-Aware
	// Retrieval Persistence, little-endian).
	Magic = uint32(0x5052414D)
	// Version is bumped on incompatible format changes.
	Version = uint32(1)
	// HeaderBytes is the size of the file header.
	HeaderBytes = 8
	// recordHeaderBytes frames one record: length + CRC.
	recordHeaderBytes = 8
	// MaxRecord bounds one record's payload (256 MB): anything larger is
	// corrupt framing, and recovery must not allocate for it.
	MaxRecord = 1 << 28
)

// ErrTornTail reports a file that ends mid-record: the bytes after the
// last whole record are an interrupted append and must be truncated,
// not interpreted.
var ErrTornTail = errors.New("persist: torn record tail")

// ErrCorrupt reports a complete record whose checksum did not match its
// payload. The record is unusable, but framing past it is intact; a
// scanner may skip it and continue.
var ErrCorrupt = errors.New("persist: record checksum mismatch")

// ErrKilled reports a journal append torn by the crash failpoint
// (Journal.SetFailpoint): the journal behaves like a dead process and
// accepts nothing further.
var ErrKilled = errors.New("persist: journal killed")

// crcTable is the Castagnoli polynomial, matching the wire protocol's
// frame trailers.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Writer frames records onto a stream. Create one with NewWriter, which
// emits the file header. Writer is not safe for concurrent use.
type Writer struct {
	w       io.Writer
	written int64
}

// NewWriter writes the file header and returns a record writer.
func NewWriter(w io.Writer) (*Writer, error) {
	pw := &Writer{w: w}
	var hdr [HeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:4], Magic)
	binary.LittleEndian.PutUint32(hdr[4:8], Version)
	if err := pw.raw(hdr[:]); err != nil {
		return nil, err
	}
	return pw, nil
}

// Written returns the total bytes pushed to the underlying writer.
func (w *Writer) Written() int64 { return w.written }

// raw writes p and counts the bytes that reached the stream.
func (w *Writer) raw(p []byte) error {
	n, err := w.w.Write(p)
	w.written += int64(n)
	return err
}

// WriteRecord frames one payload: length, CRC-32C, bytes.
func (w *Writer) WriteRecord(payload []byte) error {
	if len(payload) > MaxRecord {
		return fmt.Errorf("persist: record of %d bytes exceeds limit %d", len(payload), MaxRecord)
	}
	var hdr [recordHeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	if err := w.raw(hdr[:]); err != nil {
		return err
	}
	return w.raw(payload)
}

// EncodeRecord returns the framed bytes for one payload — header plus
// payload — for callers that need a whole record as a single buffer
// (e.g. a journal that must hand the OS one write per append).
func EncodeRecord(payload []byte) ([]byte, error) {
	if len(payload) > MaxRecord {
		return nil, fmt.Errorf("persist: record of %d bytes exceeds limit %d", len(payload), MaxRecord)
	}
	buf := make([]byte, recordHeaderBytes+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, crcTable))
	copy(buf[recordHeaderBytes:], payload)
	return buf, nil
}

// Reader parses records from a stream. NewReader validates the file
// header first.
type Reader struct {
	r io.Reader
	// off is the stream offset after the last fully framed record
	// (including quarantined ones) — the truncation point recovery
	// falls back to on a torn tail.
	off int64
}

// NewReader validates the header and returns a record reader. A stream
// too short to hold the header is reported as ErrTornTail (an empty or
// interrupted file); a wrong magic or version is a plain error.
func NewReader(r io.Reader) (*Reader, error) {
	var hdr [HeaderBytes]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, ErrTornTail
	}
	if m := binary.LittleEndian.Uint32(hdr[0:4]); m != Magic {
		return nil, fmt.Errorf("persist: bad magic %#x", m)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != Version {
		return nil, fmt.Errorf("persist: unsupported version %d", v)
	}
	return &Reader{r: r, off: HeaderBytes}, nil
}

// Offset returns the stream offset just past the last whole record —
// where a torn tail should be truncated to.
func (r *Reader) Offset() int64 { return r.off }

// ReadRecord returns the next record's payload. io.EOF marks a clean
// end at a record boundary; ErrTornTail marks an interrupted append
// (or unrecoverable framing); ErrCorrupt marks a complete record whose
// checksum failed — the caller may keep reading past it.
func (r *Reader) ReadRecord() ([]byte, error) {
	var hdr [recordHeaderBytes]byte
	n, err := io.ReadFull(r.r, hdr[:])
	if err == io.EOF && n == 0 {
		return nil, io.EOF
	}
	if err != nil {
		return nil, ErrTornTail
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if length > MaxRecord {
		// Implausible length: framing is gone, everything after is noise.
		return nil, ErrTornTail
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r.r, payload); err != nil {
		return nil, ErrTornTail
	}
	r.off += recordHeaderBytes + int64(length)
	if crc32.Checksum(payload, crcTable) != want {
		return nil, ErrCorrupt
	}
	return payload, nil
}

// Recovery summarizes what a recovery scan found and repaired.
type Recovery struct {
	// Records is the number of intact records recovered.
	Records int64
	// Quarantined counts complete records dropped for checksum mismatch.
	Quarantined int64
	// TailTruncated counts torn tails cut off (0 or 1 per file).
	TailTruncated int64
	// TruncatedBytes is how many trailing bytes the truncation removed.
	TruncatedBytes int64
}

// Add accumulates another recovery's counts (multi-file recoveries).
func (rec *Recovery) Add(o Recovery) {
	rec.Records += o.Records
	rec.Quarantined += o.Quarantined
	rec.TailTruncated += o.TailTruncated
	rec.TruncatedBytes += o.TruncatedBytes
}

// Scan reads every salvageable record from r, which holds size bytes.
// It never fails on damage: corrupt records are quarantined, a torn
// tail ends the scan, and the returned goodOffset is the boundary of
// the last intact framing (what the file should be truncated to when
// rec.TailTruncated > 0). A stream whose header itself is wrong (bad
// magic/version) is the only error case.
func Scan(r io.Reader, size int64) (recs [][]byte, rec Recovery, goodOffset int64, err error) {
	pr, err := NewReader(r)
	if err != nil {
		if errors.Is(err, ErrTornTail) {
			// Shorter than a header: the whole file is a torn tail.
			rec.TailTruncated = 1
			rec.TruncatedBytes = size
			return nil, rec, 0, nil
		}
		return nil, rec, 0, err
	}
	goodOffset = pr.Offset()
	for {
		payload, rerr := pr.ReadRecord()
		switch {
		case rerr == nil:
			recs = append(recs, payload)
			rec.Records++
			goodOffset = pr.Offset()
		case errors.Is(rerr, ErrCorrupt):
			// Complete but damaged: quarantine it. Its framing is still a
			// valid boundary, so records behind it keep their offsets.
			rec.Quarantined++
			goodOffset = pr.Offset()
		case errors.Is(rerr, io.EOF):
			return recs, rec, goodOffset, nil
		default: // torn tail
			rec.TailTruncated++
			rec.TruncatedBytes = size - goodOffset
			if rec.TruncatedBytes < 0 {
				rec.TruncatedBytes = 0
			}
			return recs, rec, goodOffset, nil
		}
	}
}

// RecoverFile opens a persist-format file, salvages its records, and
// repairs it in place: a torn tail is truncated back to the last whole
// record so subsequent appends restore a well-formed file. A missing
// file recovers to zero records. Corrupt records are quarantined
// (skipped and counted), never returned.
func RecoverFile(path string) ([][]byte, Recovery, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if errors.Is(err, os.ErrNotExist) {
		return nil, Recovery{}, nil
	}
	if err != nil {
		return nil, Recovery{}, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, Recovery{}, err
	}
	recs, rec, goodOffset, err := Scan(f, st.Size())
	if err != nil {
		return nil, rec, err
	}
	if rec.TailTruncated > 0 {
		if err := f.Truncate(goodOffset); err != nil {
			return nil, rec, fmt.Errorf("persist: truncating torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			return nil, rec, err
		}
	}
	return recs, rec, nil
}

// CopyVerified copies a persist-format file from src to dst with strict
// verification: every record must pass its CRC and the file must end
// cleanly — any torn tail or quarantined record aborts the copy. The
// destination is written atomically, so dst is never left half-shipped.
// This is the checkpoint-shipping primitive a cluster drain uses: a
// damaged source checkpoint must fail the drain, not silently relocate
// a scene missing records. Returns the records copied.
func CopyVerified(src, dst string) (int, error) {
	f, err := os.Open(src)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	recs, rec, _, err := Scan(f, st.Size())
	if err != nil {
		return 0, fmt.Errorf("persist: copy source %s: %w", src, err)
	}
	if rec.TailTruncated > 0 || rec.Quarantined > 0 {
		return 0, fmt.Errorf("persist: copy source %s damaged (%d quarantined, torn tail %v)",
			src, rec.Quarantined, rec.TailTruncated > 0)
	}
	_, err = WriteFileAtomic(dst, func(w *Writer) error {
		for _, p := range recs {
			if err := w.WriteRecord(p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return len(recs), nil
}

// WriteFileAtomic writes a persist-format file so that a crash at any
// point leaves either the old file or the new one, never a mix: the
// content goes to a temp file in the same directory, is fsynced, then
// renamed over path, and the directory is fsynced so the rename itself
// is durable. write receives the record writer for the new file.
// Returns the bytes written.
func WriteFileAtomic(path string, write func(*Writer) error) (int64, error) {
	var written int64
	err := writeRawAtomic(path, func(f *os.File) error {
		pw, err := NewWriter(f)
		if err != nil {
			return err
		}
		if err := write(pw); err != nil {
			return err
		}
		written = pw.Written()
		return nil
	})
	if err != nil {
		return 0, err
	}
	return written, nil
}

// WriteBytesAtomic atomically replaces path with data — the plain-file
// (no record framing) variant for artifacts like JSON experiment
// results and dataset files, which carry their own format.
func WriteBytesAtomic(path string, data []byte) error {
	return writeRawAtomic(path, func(f *os.File) error {
		_, err := f.Write(data)
		return err
	})
}

// WriteToAtomic atomically replaces path with whatever write produces —
// the streaming variant of WriteBytesAtomic for writers that serialize
// directly (e.g. workload.Dataset.Save).
func WriteToAtomic(path string, write func(io.Writer) error) error {
	return writeRawAtomic(path, func(f *os.File) error { return write(f) })
}

// writeRawAtomic is the shared temp+fsync+rename core: write fills the
// temp file, then it is fsynced, closed, renamed over path, and the
// directory is synced. Any failure removes the temp file and leaves
// path untouched.
func writeRawAtomic(path string, write func(*os.File) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpPath := tmp.Name()
	if err := write(tmp); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return err
	}
	if err := os.Rename(tmpPath, path); err != nil {
		os.Remove(tmpPath)
		return err
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so a completed rename survives a power
// cut. Best-effort: some filesystems refuse directory fsync, and the
// rename is still atomic against process crashes without it.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
