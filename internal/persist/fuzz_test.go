package persist

import (
	"bytes"
	"testing"
)

// FuzzScan throws arbitrary bytes at the recovery scanner — the code
// path every journal crosses on startup, where the
// input is by definition whatever a crash left behind. The scanner
// must never panic, never invent records, and its accounting must be
// internally consistent.
func FuzzScan(f *testing.F) {
	// Seed with a well-formed file...
	var good bytes.Buffer
	w, err := NewWriter(&good)
	if err != nil {
		f.Fatal(err)
	}
	w.WriteRecord([]byte("seed-record-one"))
	w.WriteRecord(nil)
	w.WriteRecord(bytes.Repeat([]byte{0x5A}, 300))
	f.Add(good.Bytes())
	// ...a torn variant...
	f.Add(good.Bytes()[:good.Len()-5])
	// ...a bit-flipped variant...
	flipped := append([]byte{}, good.Bytes()...)
	flipped[HeaderBytes+10] ^= 0x01
	f.Add(flipped)
	// ...and degenerate shapes.
	f.Add([]byte{})
	f.Add(good.Bytes()[:HeaderBytes])
	f.Add(good.Bytes()[:3])

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, rec, goodOffset, err := Scan(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			// Only a bad header may error, and then nothing is returned.
			if len(recs) != 0 {
				t.Fatalf("error %v with %d records", err, len(recs))
			}
			return
		}
		if int64(len(recs)) != rec.Records {
			t.Fatalf("returned %d records but counted %d", len(recs), rec.Records)
		}
		if rec.Quarantined < 0 || rec.TailTruncated < 0 || rec.TailTruncated > 1 {
			t.Fatalf("implausible recovery %+v", rec)
		}
		if rec.TruncatedBytes < 0 {
			t.Fatalf("negative TruncatedBytes: %+v", rec)
		}
		if goodOffset < 0 || goodOffset > int64(len(data)) {
			t.Fatalf("goodOffset %d outside [0,%d]", goodOffset, len(data))
		}
		if rec.TailTruncated == 0 && rec.TruncatedBytes != 0 {
			t.Fatalf("truncated bytes without a truncation: %+v", rec)
		}
		// Every salvaged record must be bytes that literally appear in
		// the input (no invention): with framing, each record's payload
		// is a subslice of data. Verify total payload volume fits.
		var total int64
		for _, r := range recs {
			total += int64(len(r)) + recordHeaderBytes
		}
		if total > int64(len(data)) {
			t.Fatalf("salvaged %d framed bytes from %d input bytes", total, len(data))
		}

		// Re-encoding the salvaged records must produce a file that scans
		// clean with identical payloads: recovery output is always valid
		// input.
		var rebuilt bytes.Buffer
		w, err := NewWriter(&rebuilt)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := w.WriteRecord(r); err != nil {
				t.Fatal(err)
			}
		}
		recs2, rec2, _, err := Scan(bytes.NewReader(rebuilt.Bytes()), int64(rebuilt.Len()))
		if err != nil || rec2.Records != rec.Records || rec2.Quarantined != 0 || rec2.TailTruncated != 0 {
			t.Fatalf("re-encoded scan: rec=%+v err=%v", rec2, err)
		}
		for i := range recs {
			if !bytes.Equal(recs[i], recs2[i]) {
				t.Fatalf("record %d changed across re-encode", i)
			}
		}
	})
}
