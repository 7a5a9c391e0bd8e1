package faultdisk

import (
	"bytes"
	"io"
	"testing"
)

// pattern returns n deterministic non-trivial bytes.
func pattern(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + 3)
	}
	return p
}

func readAll(t *testing.T, r io.ReaderAt, off int64, n int) ([]byte, error) {
	t.Helper()
	buf := make([]byte, n)
	got, err := r.ReadAt(buf, off)
	return buf[:got], err
}

func TestFaultDiskTransparentWhenZero(t *testing.T) {
	data := pattern(4096)
	d := New(bytes.NewReader(data), Config{})
	for off := int64(0); off < 4096; off += 512 {
		got, err := readAll(t, d, off, 512)
		if err != nil {
			t.Fatalf("read at %d: %v", off, err)
		}
		if !bytes.Equal(got, data[off:off+512]) {
			t.Fatalf("read at %d: bytes differ", off)
		}
	}
	if n := d.Counters(); n.Total() != 0 {
		t.Fatalf("zero config injected faults: %+v", n)
	}
}

func TestFaultDiskInjectsTransientErrors(t *testing.T) {
	data := pattern(64 << 10)
	d := New(bytes.NewReader(data), Config{Seed: 7, ErrAfterMin: 1, ErrAfterMax: 4096})
	errs := 0
	for i := 0; i < 64; i++ {
		_, err := readAll(t, d, int64(i)*1024, 1024)
		if err != nil {
			if !IsInjected(err) {
				t.Fatalf("read %d: non-injected error %v", i, err)
			}
			errs++
		}
	}
	if errs == 0 {
		t.Fatal("dense error schedule injected nothing over 64 KB of reads")
	}
	if n := d.Counters(); n.Errs != int64(errs) {
		t.Fatalf("counters report %d errors, observed %d", n.Errs, errs)
	}
	// Transient: the same offsets read clean after Quiesce.
	d.Quiesce()
	for i := 0; i < 64; i++ {
		got, err := readAll(t, d, int64(i)*1024, 1024)
		if err != nil || !bytes.Equal(got, data[i*1024:(i+1)*1024]) {
			t.Fatalf("read %d after Quiesce: err=%v", i, err)
		}
	}
}

func TestFaultDiskDeterministicSchedule(t *testing.T) {
	data := pattern(64 << 10)
	cfg := Config{Seed: 42, ErrAfterMin: 512, ErrAfterMax: 8192, FlipAfterMin: 1024, FlipAfterMax: 16384, TornAfterMin: 2048, TornAfterMax: 32768}
	run := func() ([]int, Counters) {
		d := New(bytes.NewReader(data), cfg)
		var failed []int
		for i := 0; i < 64; i++ {
			got, err := readAll(t, d, int64(i)*1024, 1024)
			if err != nil || !bytes.Equal(got, data[i*1024:(i+1)*1024]) {
				failed = append(failed, i)
			}
		}
		return failed, d.Counters()
	}
	f1, c1 := run()
	f2, c2 := run()
	if len(f1) == 0 {
		t.Fatal("schedule injected nothing")
	}
	if c1 != c2 || len(f1) != len(f2) {
		t.Fatalf("same seed diverged: %+v vs %+v", c1, c2)
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("same seed failed different reads: %v vs %v", f1, f2)
		}
	}
}

func TestFaultDiskBitFlipIsTransient(t *testing.T) {
	data := pattern(8192)
	// Flip somewhere in the first 4 KB read, then nothing for a long time.
	d := New(bytes.NewReader(data), Config{Seed: 3, FlipAfterMin: 1, FlipAfterMax: 4096})
	got, err := readAll(t, d, 0, 4096)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if bytes.Equal(got, data[:4096]) {
		t.Fatal("first read saw no flip")
	}
	d.Quiesce()
	got, err = readAll(t, d, 0, 4096)
	if err != nil || !bytes.Equal(got, data[:4096]) {
		t.Fatalf("flip was not transient: err=%v", err)
	}
}

func TestFaultDiskTornRead(t *testing.T) {
	data := pattern(8192)
	d := New(bytes.NewReader(data), Config{Seed: 5, TornAfterMin: 1, TornAfterMax: 2048})
	n, err := d.ReadAt(make([]byte, 2048), 0)
	if !IsInjected(err) {
		t.Fatalf("want injected torn read, got n=%d err=%v", n, err)
	}
	if n >= 2048 || n != 1024 {
		t.Fatalf("torn read returned %d of 2048 bytes, want half", n)
	}
}

func TestFaultDiskPermanentCorruption(t *testing.T) {
	data := pattern(8192)
	d := New(bytes.NewReader(data), Config{})
	d.SetCorrupt(1000, 100)
	got, err := readAll(t, d, 512, 1024)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	for i := 512; i < 512+1024; i++ {
		want := data[i]
		if i >= 1000 && i < 1100 {
			want ^= 0xA5
		}
		if got[i-512] != want {
			t.Fatalf("byte %d: got %#x want %#x", i, got[i-512], want)
		}
	}
	// Damage persists across reads and Quiesce, heals on ClearCorrupt.
	d.Quiesce()
	got, _ = readAll(t, d, 1000, 100)
	if bytes.Equal(got, data[1000:1100]) {
		t.Fatal("corruption healed by Quiesce")
	}
	if c := d.Counters(); c.CorruptReads != 2 {
		t.Fatalf("CorruptReads = %d, want 2", c.CorruptReads)
	}
	d.ClearCorrupt()
	got, err = readAll(t, d, 1000, 100)
	if err != nil || !bytes.Equal(got, data[1000:1100]) {
		t.Fatalf("ClearCorrupt did not heal: err=%v", err)
	}
	// A read outside the span is never charged.
	got, err = readAll(t, d, 4096, 512)
	if err != nil || !bytes.Equal(got, data[4096:4608]) {
		t.Fatalf("read outside span: err=%v", err)
	}
}

func TestFaultDiskArmRedrawsFromCurrentPosition(t *testing.T) {
	data := pattern(64 << 10)
	d := New(bytes.NewReader(data), Config{Seed: 9, ErrAfterMin: 1, ErrAfterMax: 1024})
	d.Quiesce()
	// Consume schedule-clock bytes while quiesced; no faults.
	for i := 0; i < 32; i++ {
		if _, err := readAll(t, d, int64(i)*1024, 1024); err != nil {
			t.Fatalf("quiesced read %d: %v", i, err)
		}
	}
	d.Arm()
	// The redrawn schedule lands within 1 KB: the very next 1 KB read fails.
	if _, err := readAll(t, d, 0, 1024); !IsInjected(err) {
		t.Fatalf("armed read did not fail: %v", err)
	}
}
