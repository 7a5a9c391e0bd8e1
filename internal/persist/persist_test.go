package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func writeRecords(t *testing.T, path string, payloads ...[]byte) {
	t.Helper()
	if _, err := WriteFileAtomic(path, func(w *Writer) error {
		for _, p := range payloads {
			if err := w.WriteRecord(p); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatalf("WriteFileAtomic: %v", err)
	}
}

func TestRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.ckpt")
	want := [][]byte{[]byte("alpha"), {}, []byte("gamma gamma gamma")}
	writeRecords(t, path, want...)

	recs, rec, err := RecoverFile(path)
	if err != nil {
		t.Fatalf("RecoverFile: %v", err)
	}
	if rec.Quarantined != 0 || rec.TailTruncated != 0 {
		t.Fatalf("clean file reported damage: %+v", rec)
	}
	if rec.Records != int64(len(want)) || len(recs) != len(want) {
		t.Fatalf("got %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if !bytes.Equal(recs[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, recs[i], want[i])
		}
	}
}

func TestMissingFileRecoversEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent.ckpt")
	recs, rec, err := RecoverFile(path)
	if err != nil || len(recs) != 0 || rec != (Recovery{}) {
		t.Fatalf("missing file: recs=%d rec=%+v err=%v", len(recs), rec, err)
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "torn.ckpt")
	writeRecords(t, path, []byte("first"), []byte("second"))
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Append a partial record: a full length+CRC header promising 100
	// bytes, followed by only 3.
	torn := make([]byte, 8, 11)
	binary.LittleEndian.PutUint32(torn[0:4], 100)
	binary.LittleEndian.PutUint32(torn[4:8], 0xdeadbeef)
	torn = append(torn, 'x', 'y', 'z')
	if err := os.WriteFile(path, append(append([]byte{}, intact...), torn...), 0o644); err != nil {
		t.Fatal(err)
	}

	recs, rec, err := RecoverFile(path)
	if err != nil {
		t.Fatalf("RecoverFile: %v", err)
	}
	if rec.Records != 2 || rec.TailTruncated != 1 || rec.Quarantined != 0 {
		t.Fatalf("recovery = %+v, want 2 records, 1 truncation", rec)
	}
	if rec.TruncatedBytes != int64(len(torn)) {
		t.Fatalf("TruncatedBytes = %d, want %d", rec.TruncatedBytes, len(torn))
	}
	if len(recs) != 2 || string(recs[1]) != "second" {
		t.Fatalf("salvaged %q", recs)
	}

	// The repair must restore the pre-tear file byte for byte, and a
	// second recovery must see no damage.
	repaired, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(repaired, intact) {
		t.Fatalf("repaired file differs from intact prefix: %d vs %d bytes", len(repaired), len(intact))
	}
	_, rec2, err := RecoverFile(path)
	if err != nil || rec2.TailTruncated != 0 || rec2.Records != 2 {
		t.Fatalf("second recovery = %+v err=%v, want clean", rec2, err)
	}
}

func TestCorruptRecordQuarantined(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.ckpt")
	writeRecords(t, path, []byte("good-one"), []byte("will-rot"), []byte("good-two"))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit inside the middle record's payload.
	mid := HeaderBytes + 8 + len("good-one") + 8 + 2
	data[mid] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	recs, rec, err := RecoverFile(path)
	if err != nil {
		t.Fatalf("RecoverFile: %v", err)
	}
	if rec.Records != 2 || rec.Quarantined != 1 || rec.TailTruncated != 0 {
		t.Fatalf("recovery = %+v, want 2 good + 1 quarantined", rec)
	}
	if string(recs[0]) != "good-one" || string(recs[1]) != "good-two" {
		t.Fatalf("salvaged %q", recs)
	}
}

func TestImplausibleLengthIsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "len.ckpt")
	writeRecords(t, path, []byte("keep"))
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], MaxRecord+1)
	binary.LittleEndian.PutUint32(hdr[4:8], 0)
	if _, err := f.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	// Pile real-looking bytes behind it: they must not be interpreted.
	if _, err := f.Write(bytes.Repeat([]byte{0xAA}, 64)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recs, rec, err := RecoverFile(path)
	if err != nil {
		t.Fatalf("RecoverFile: %v", err)
	}
	if rec.Records != 1 || rec.TailTruncated != 1 || rec.Quarantined != 0 {
		t.Fatalf("recovery = %+v, want 1 record + truncation", rec)
	}
	if len(recs) != 1 || string(recs[0]) != "keep" {
		t.Fatalf("salvaged %q", recs)
	}
}

func TestEmptyAndHeaderOnlyFiles(t *testing.T) {
	dir := t.TempDir()

	empty := filepath.Join(dir, "empty.ckpt")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, rec, err := RecoverFile(empty)
	if err != nil || len(recs) != 0 || rec.TailTruncated != 1 {
		t.Fatalf("empty file: recs=%d rec=%+v err=%v", len(recs), rec, err)
	}

	headerOnly := filepath.Join(dir, "hdr.ckpt")
	writeRecords(t, headerOnly)
	recs, rec, err = RecoverFile(headerOnly)
	if err != nil || len(recs) != 0 || rec.TailTruncated != 0 {
		t.Fatalf("header-only file: recs=%d rec=%+v err=%v", len(recs), rec, err)
	}
}

func TestBadMagicRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "magic.ckpt")
	if err := os.WriteFile(path, []byte("NOTAPERSISTFILE!"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RecoverFile(path); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestAtomicWriteFailureLeavesOldFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keep.ckpt")
	writeRecords(t, path, []byte("original"))
	boom := errors.New("boom")
	if _, err := WriteFileAtomic(path, func(w *Writer) error {
		w.WriteRecord([]byte("partial new content"))
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	recs, rec, err := RecoverFile(path)
	if err != nil || rec.Records != 1 || string(recs[0]) != "original" {
		t.Fatalf("old file damaged: recs=%q rec=%+v err=%v", recs, rec, err)
	}
	// No temp litter.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %v", entries)
	}
}

func TestWriteBytesAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.json")
	if err := WriteBytesAtomic(path, []byte("{}\n")); err != nil {
		t.Fatal(err)
	}
	if err := WriteBytesAtomic(path, []byte("{\"v\":2}\n")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "{\"v\":2}\n" {
		t.Fatalf("got %q err=%v", got, err)
	}
}

func TestJournalAppendRecover(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sessions.journal")
	j, recs, rec, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || rec != (Recovery{}) {
		t.Fatalf("fresh journal: recs=%d rec=%+v", len(recs), rec)
	}
	for i := 0; i < 5; i++ {
		if err := j.Append([]byte(fmt.Sprintf("entry-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, recs, rec, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if rec.Records != 5 || len(recs) != 5 {
		t.Fatalf("reopen: rec=%+v recs=%d", rec, len(recs))
	}
	for i, r := range recs {
		if string(r) != fmt.Sprintf("entry-%d", i) {
			t.Fatalf("record %d = %q", i, r)
		}
	}
	// Appends continue after recovery.
	if err := j2.Append([]byte("entry-5")); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	_, recs, _, err = OpenJournal(path)
	if err != nil || len(recs) != 6 {
		t.Fatalf("after continued append: recs=%d err=%v", len(recs), err)
	}
}

func TestJournalFailpointLeavesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.journal")
	j, _, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	j.SetFailpoint(5)
	if err := j.Append([]byte("torn-away")); !errors.Is(err, ErrKilled) {
		t.Fatalf("failpoint append err = %v", err)
	}
	if !j.Killed() {
		t.Fatal("journal should be dead after failpoint")
	}
	// Dead journal swallows appends silently.
	if err := j.Append([]byte("ghost")); err != nil {
		t.Fatalf("post-kill append err = %v", err)
	}
	j.Close()

	_, recs, rec, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records != 1 || rec.TailTruncated != 1 {
		t.Fatalf("recovery = %+v, want 1 record + torn tail", rec)
	}
	if string(recs[0]) != "durable" {
		t.Fatalf("salvaged %q", recs[0])
	}
}

func TestJournalKillFreezesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kill.journal")
	j, _, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("before")); err != nil {
		t.Fatal(err)
	}
	sizeAtKill := j.Size()
	j.Kill()
	if err := j.Append([]byte("after-kill")); err != nil {
		t.Fatal(err)
	}
	if err := j.Rewrite([][]byte{[]byte("compacted")}); err != nil {
		t.Fatal(err)
	}
	if got := j.Size(); got != sizeAtKill {
		t.Fatalf("size moved after kill: %d -> %d", sizeAtKill, got)
	}
	j.Close()
	_, recs, _, err := OpenJournal(path)
	if err != nil || len(recs) != 1 || string(recs[0]) != "before" {
		t.Fatalf("killed journal on disk: recs=%q err=%v", recs, err)
	}
}

func TestJournalRewriteCompacts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "compact.journal")
	j, _, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := j.Append([]byte(fmt.Sprintf("bulk-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	before := j.Size()
	if err := j.Rewrite([][]byte{[]byte("survivor-a"), []byte("survivor-b")}); err != nil {
		t.Fatal(err)
	}
	if after := j.Size(); after >= before {
		t.Fatalf("compaction did not shrink: %d -> %d", before, after)
	}
	// The swapped handle must still accept appends.
	if err := j.Append([]byte("post-compact")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, recs, rec, err := OpenJournal(path)
	if err != nil || rec.Records != 3 {
		t.Fatalf("after compaction: rec=%+v err=%v", rec, err)
	}
	if string(recs[0]) != "survivor-a" || string(recs[2]) != "post-compact" {
		t.Fatalf("records %q", recs)
	}
}

func TestScanSizeMismatchClamped(t *testing.T) {
	// A size smaller than reality must not produce negative counts.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.WriteRecord([]byte("x"))
	buf.WriteByte(0xFF) // torn byte
	_, rec, _, err := Scan(bytes.NewReader(buf.Bytes()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rec.TruncatedBytes < 0 {
		t.Fatalf("negative TruncatedBytes: %+v", rec)
	}
}

func TestRecoveryAdd(t *testing.T) {
	a := Recovery{Records: 1, Quarantined: 2, TailTruncated: 1, TruncatedBytes: 10}
	a.Add(Recovery{Records: 4, Quarantined: 1, TruncatedBytes: 5})
	want := Recovery{Records: 5, Quarantined: 3, TailTruncated: 1, TruncatedBytes: 15}
	if a != want {
		t.Fatalf("Add = %+v, want %+v", a, want)
	}
}

func TestRecordTooLarge(t *testing.T) {
	w, err := NewWriter(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRecord(make([]byte, MaxRecord+1)); err == nil {
		t.Fatal("oversized record accepted")
	}
	if _, err := EncodeRecord(make([]byte, MaxRecord+1)); err == nil {
		t.Fatal("oversized EncodeRecord accepted")
	}
}
