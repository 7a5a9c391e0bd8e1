// Segment files: the out-of-core payload format under index.PagedStore.
//
// A segment holds a dense array of fixed-size records packed into
// fixed-size pages, read back one page at a time. The layout is built
// for crash-evident, random-access reads:
//
//	[8B header: SegMagic, SegVersion]
//	[page 0][page 1]...[page N-1]      each exactly PageSize bytes
//	[footer payload]                    see below
//	[16B trailer: footerLen u32, footerCRC u32, SegMagic, SegVersion]
//
// The footer payload carries the geometry (page size, record size,
// record count, page count), an opaque caller meta blob, and the page
// directory: one CRC-32C per page. Opening a segment reads the trailer,
// CRC-checks the footer, and validates every size relation against the
// actual file length — a truncated, extended, or bit-flipped file fails
// to open (or, for page damage, fails the specific ReadPage) instead of
// serving wrong coefficients. Segments are written atomically (temp +
// fsync + rename), so a crash mid-build never leaves a half-segment at
// the target path.
//
// Like the record framing above, this file is stdlib-only and knows
// nothing about what the records mean; index.PagedStore layers
// coefficient encoding and paging policy on top.
package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync/atomic"
)

// ErrSegmentClosed reports a read against a segment after Close: the
// handle is gone, and reading through it would be a caller bug, not a
// disk fault.
var ErrSegmentClosed = errors.New("persist: segment is closed")

const (
	// SegMagic identifies a segment file ("MASG": Motion-Aware SeGment,
	// little-endian).
	SegMagic = uint32(0x4753414D)
	// SegVersion is bumped on incompatible segment-format changes.
	SegVersion = uint32(1)
	// segHeaderBytes is the fixed file header (magic + version).
	segHeaderBytes = 8
	// segTrailerBytes is the fixed trailer (footer length + footer CRC +
	// magic + version).
	segTrailerBytes = 16
	// segFooterFixed is the fixed-size prefix of the footer payload:
	// pageSize u32, recordSize u32, count i64, numPages u32, metaLen u32.
	segFooterFixed = 24
	// DefaultPageSize is the page size WriteSegment uses when the spec
	// leaves it zero: 64 KiB, large enough to amortize read syscalls and
	// small enough for fine-grained cache budgets.
	DefaultPageSize = 64 << 10
	// MaxSegmentPageSize bounds a page (16 MiB): larger values are
	// corrupt framing, and a reader must not allocate for them.
	MaxSegmentPageSize = 16 << 20
	// MaxSegmentMeta bounds the caller meta blob (64 MiB).
	MaxSegmentMeta = 64 << 20
)

// SegmentSpec fixes a segment's geometry before records are appended.
type SegmentSpec struct {
	// PageSize is the page size in bytes (0 → DefaultPageSize). Must be
	// at least RecordSize; records never straddle pages.
	PageSize int
	// RecordSize is the fixed size of every record in bytes (required).
	RecordSize int
}

func (s SegmentSpec) validate() error {
	if s.RecordSize <= 0 {
		return fmt.Errorf("persist: segment record size %d must be positive", s.RecordSize)
	}
	if s.PageSize < s.RecordSize {
		return fmt.Errorf("persist: segment page size %d smaller than record size %d",
			s.PageSize, s.RecordSize)
	}
	if s.PageSize > MaxSegmentPageSize {
		return fmt.Errorf("persist: segment page size %d exceeds limit %d",
			s.PageSize, MaxSegmentPageSize)
	}
	return nil
}

// SegmentAppender streams records into a segment under construction.
// It buffers one page at a time: a full page is CRC'd and flushed, so
// building a segment needs memory proportional to one page plus the
// page directory, never to the record count.
type SegmentAppender struct {
	w     io.Writer
	spec  SegmentSpec
	page  []byte
	crcs  []uint32
	count int64
	err   error
}

// Append adds one record; len(rec) must equal the spec's RecordSize.
func (a *SegmentAppender) Append(rec []byte) error {
	if a.err == nil && len(rec) != a.spec.RecordSize {
		a.err = fmt.Errorf("persist: segment record of %d bytes, want %d", len(rec), a.spec.RecordSize)
	}
	dst, err := a.Reserve()
	if err != nil {
		return err
	}
	copy(dst, rec)
	return nil
}

// Reserve adds one record and returns its bytes, in the page buffer,
// for the caller to fill completely before the next Reserve or Append:
// Append without the copy. The bytes are not zeroed.
func (a *SegmentAppender) Reserve() ([]byte, error) {
	if a.err != nil {
		return nil, a.err
	}
	if len(a.page)+a.spec.RecordSize > a.spec.PageSize {
		if err := a.flushPage(); err != nil {
			return nil, err
		}
	}
	n := len(a.page)
	a.page = a.page[:n+a.spec.RecordSize]
	a.count++
	return a.page[n:], nil
}

// Count returns how many records have been appended.
func (a *SegmentAppender) Count() int64 { return a.count }

// flushPage zero-pads the buffered page to PageSize, records its CRC in
// the directory, and writes it out.
func (a *SegmentAppender) flushPage() error {
	for len(a.page) < a.spec.PageSize {
		a.page = append(a.page, 0)
	}
	a.crcs = append(a.crcs, crc32.Checksum(a.page, crcTable))
	if _, err := a.w.Write(a.page); err != nil {
		a.err = err
		return err
	}
	a.page = a.page[:0]
	return nil
}

// WriteSegment builds a segment file atomically: fill appends the
// records through the appender and returns the opaque meta blob to store
// in the footer (offset tables, bounds — whatever the caller's reader
// needs before touching any page). A crash or error at any point leaves
// either the old file or the complete new one at path, never a torn
// segment.
func WriteSegment(path string, spec SegmentSpec, fill func(*SegmentAppender) ([]byte, error)) error {
	if spec.PageSize == 0 {
		spec.PageSize = DefaultPageSize
	}
	if err := spec.validate(); err != nil {
		return err
	}
	return writeRawAtomic(path, func(f *os.File) error {
		var hdr [segHeaderBytes]byte
		binary.LittleEndian.PutUint32(hdr[0:4], SegMagic)
		binary.LittleEndian.PutUint32(hdr[4:8], SegVersion)
		if _, err := f.Write(hdr[:]); err != nil {
			return err
		}
		a := &SegmentAppender{w: f, spec: spec, page: make([]byte, 0, spec.PageSize)}
		meta, err := fill(a)
		if err != nil {
			return err
		}
		if a.err != nil {
			return a.err
		}
		if len(meta) > MaxSegmentMeta {
			return fmt.Errorf("persist: segment meta of %d bytes exceeds limit %d", len(meta), MaxSegmentMeta)
		}
		if len(a.page) > 0 {
			if err := a.flushPage(); err != nil {
				return err
			}
		}
		// Footer payload: geometry, meta, page directory.
		footer := make([]byte, 0, segFooterFixed+len(meta)+4*len(a.crcs))
		footer = binary.LittleEndian.AppendUint32(footer, uint32(spec.PageSize))
		footer = binary.LittleEndian.AppendUint32(footer, uint32(spec.RecordSize))
		footer = binary.LittleEndian.AppendUint64(footer, uint64(a.count))
		footer = binary.LittleEndian.AppendUint32(footer, uint32(len(a.crcs)))
		footer = binary.LittleEndian.AppendUint32(footer, uint32(len(meta)))
		footer = append(footer, meta...)
		for _, crc := range a.crcs {
			footer = binary.LittleEndian.AppendUint32(footer, crc)
		}
		if _, err := f.Write(footer); err != nil {
			return err
		}
		var tr [segTrailerBytes]byte
		binary.LittleEndian.PutUint32(tr[0:4], uint32(len(footer)))
		binary.LittleEndian.PutUint32(tr[4:8], crc32.Checksum(footer, crcTable))
		binary.LittleEndian.PutUint32(tr[8:12], SegMagic)
		binary.LittleEndian.PutUint32(tr[12:16], SegVersion)
		_, err = f.Write(tr[:])
		return err
	})
}

// Segment is an open segment: validated geometry, the caller meta blob,
// and the page directory, all resident; record payloads stay on disk
// until ReadPage pulls a page in. ReadPage is safe for concurrent use
// (positioned reads only); Close is not safe concurrently with reads.
type Segment struct {
	r          io.ReaderAt
	closer     io.Closer
	closed     atomic.Bool
	pageSize   int
	recordSize int
	perPage    int
	count      int64
	numPages   int
	meta       []byte
	crcs       []uint32
}

// OpenSegment opens and validates a segment file.
func OpenSegment(path string) (*Segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	seg, err := NewSegment(f, st.Size())
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: segment %s: %w", path, err)
	}
	seg.closer = f
	return seg, nil
}

// NewSegment validates a segment held by any random-access reader of
// the given total size (the fuzzer drives this with in-memory bytes).
func NewSegment(r io.ReaderAt, size int64) (*Segment, error) {
	if size < segHeaderBytes+segTrailerBytes {
		return nil, fmt.Errorf("persist: %d bytes is too short for a segment", size)
	}
	var hdr [segHeaderBytes]byte
	if _, err := r.ReadAt(hdr[:], 0); err != nil {
		return nil, err
	}
	if m := binary.LittleEndian.Uint32(hdr[0:4]); m != SegMagic {
		return nil, fmt.Errorf("persist: bad segment magic %#x", m)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != SegVersion {
		return nil, fmt.Errorf("persist: unsupported segment version %d", v)
	}
	var tr [segTrailerBytes]byte
	if _, err := r.ReadAt(tr[:], size-segTrailerBytes); err != nil {
		return nil, err
	}
	if m := binary.LittleEndian.Uint32(tr[8:12]); m != SegMagic {
		return nil, fmt.Errorf("persist: bad segment trailer magic %#x", m)
	}
	if v := binary.LittleEndian.Uint32(tr[12:16]); v != SegVersion {
		return nil, fmt.Errorf("persist: unsupported segment trailer version %d", v)
	}
	footerLen := int64(binary.LittleEndian.Uint32(tr[0:4]))
	if footerLen < segFooterFixed || segHeaderBytes+footerLen+segTrailerBytes > size {
		return nil, fmt.Errorf("persist: implausible segment footer length %d", footerLen)
	}
	footer := make([]byte, footerLen)
	if _, err := r.ReadAt(footer, size-segTrailerBytes-footerLen); err != nil {
		return nil, err
	}
	if got, want := crc32.Checksum(footer, crcTable), binary.LittleEndian.Uint32(tr[4:8]); got != want {
		return nil, fmt.Errorf("persist: segment footer checksum mismatch: %w", ErrCorrupt)
	}
	s := &Segment{
		r:          r,
		pageSize:   int(binary.LittleEndian.Uint32(footer[0:4])),
		recordSize: int(binary.LittleEndian.Uint32(footer[4:8])),
		count:      int64(binary.LittleEndian.Uint64(footer[8:16])),
		numPages:   int(binary.LittleEndian.Uint32(footer[16:20])),
	}
	metaLen := int64(binary.LittleEndian.Uint32(footer[20:24]))
	spec := SegmentSpec{PageSize: s.pageSize, RecordSize: s.recordSize}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	s.perPage = s.pageSize / s.recordSize
	if s.count < 0 || segFooterFixed+metaLen+4*int64(s.numPages) != footerLen {
		return nil, fmt.Errorf("persist: segment footer geometry does not add up")
	}
	if want := (s.count + int64(s.perPage) - 1) / int64(s.perPage); int64(s.numPages) != want {
		return nil, fmt.Errorf("persist: segment claims %d pages for %d records, want %d",
			s.numPages, s.count, want)
	}
	if want := segHeaderBytes + int64(s.numPages)*int64(s.pageSize) + footerLen + segTrailerBytes; want != size {
		return nil, fmt.Errorf("persist: segment is %d bytes, geometry wants %d", size, want)
	}
	s.meta = footer[segFooterFixed : segFooterFixed+metaLen]
	dir := footer[segFooterFixed+metaLen:]
	s.crcs = make([]uint32, s.numPages)
	for i := range s.crcs {
		s.crcs[i] = binary.LittleEndian.Uint32(dir[4*i:])
	}
	return s, nil
}

// NewSegmentBytes validates an in-memory segment image.
func NewSegmentBytes(data []byte) (*Segment, error) {
	return NewSegment(bytes.NewReader(data), int64(len(data)))
}

// Meta returns the opaque caller meta blob stored in the footer. The
// slice is owned by the segment; callers must not modify it.
func (s *Segment) Meta() []byte { return s.meta }

// NumRecords returns the record count.
func (s *Segment) NumRecords() int64 { return s.count }

// RecordSize returns the fixed per-record size in bytes.
func (s *Segment) RecordSize() int { return s.recordSize }

// PageSize returns the page size in bytes.
func (s *Segment) PageSize() int { return s.pageSize }

// NumPages returns the page count.
func (s *Segment) NumPages() int { return s.numPages }

// RecordsPerPage returns how many records a full page holds.
func (s *Segment) RecordsPerPage() int { return s.perPage }

// RecordsInPage returns how many records the given page actually holds
// (the last page may be short).
func (s *Segment) RecordsInPage(page int) int {
	if page < 0 || page >= s.numPages {
		return 0
	}
	if page == s.numPages-1 {
		if n := int(s.count - int64(page)*int64(s.perPage)); n < s.perPage {
			return n
		}
	}
	return s.perPage
}

// PageOffset returns the byte offset of the given page within the
// segment file — the address a fault injector (or an fsck) needs to
// target one specific page.
func (s *Segment) PageOffset(page int) int64 {
	return segHeaderBytes + int64(page)*int64(s.pageSize)
}

// ReadPage reads one page into buf (grown if needed), verifies it
// against the page directory, and returns the page bytes. Safe for
// concurrent callers with distinct buffers.
func (s *Segment) ReadPage(page int, buf []byte) ([]byte, error) {
	if s.closed.Load() {
		return nil, fmt.Errorf("persist: segment page %d: %w", page, ErrSegmentClosed)
	}
	if page < 0 || page >= s.numPages {
		return nil, fmt.Errorf("persist: segment page %d out of range [0, %d)", page, s.numPages)
	}
	if cap(buf) < s.pageSize {
		buf = make([]byte, s.pageSize)
	}
	buf = buf[:s.pageSize]
	if _, err := s.r.ReadAt(buf, s.PageOffset(page)); err != nil {
		return nil, fmt.Errorf("persist: segment page %d: %w", page, err)
	}
	if crc32.Checksum(buf, crcTable) != s.crcs[page] {
		return nil, fmt.Errorf("persist: segment page %d: %w", page, ErrCorrupt)
	}
	return buf, nil
}

// Close releases the underlying file (no-op for byte-backed segments).
// Close is idempotent: the first call closes, later calls return nil.
// Reads after Close fail with ErrSegmentClosed instead of reaching
// through a dead handle.
func (s *Segment) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	if s.closer != nil {
		return s.closer.Close()
	}
	return nil
}
