package faultnet

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/stats"
)

// pair returns a connected TCP loopback pair.
func pair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	done := make(chan net.Conn, 1)
	go func() {
		c, err := lis.Accept()
		if err != nil {
			t.Error(err)
			done <- nil
			return
		}
		done <- c
	}()
	client, err = net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server = <-done
	if server == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

func TestTransparentWhenZero(t *testing.T) {
	c, s := pair(t)
	fc := Wrap(c, Config{}, nil)
	msg := []byte("hello across the link")
	if _, err := fc.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(s, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
}

func TestDropAfterBytes(t *testing.T) {
	c, s := pair(t)
	st := stats.New()
	fc := Wrap(c, Config{Seed: 1, DropAfterMin: 100, DropAfterMax: 100}, st)

	// First write stays under the offset.
	if n, err := fc.Write(make([]byte, 60)); err != nil || n != 60 {
		t.Fatalf("write 1: n=%d err=%v", n, err)
	}
	// Second write crosses it: short write with an injected error.
	n, err := fc.Write(make([]byte, 60))
	if !IsInjected(err) {
		t.Fatalf("expected injected drop, got n=%d err=%v", n, err)
	}
	if n != 40 {
		t.Fatalf("short write delivered %d bytes, want 40", n)
	}
	if !fc.Dropped() {
		t.Fatal("connection not marked dropped")
	}
	// Every later operation fails fast.
	if _, err := fc.Write([]byte{1}); !IsInjected(err) {
		t.Fatalf("post-drop write: %v", err)
	}
	if _, err := fc.Read(make([]byte, 1)); !IsInjected(err) {
		t.Fatalf("post-drop read: %v", err)
	}
	// The peer sees the 100 bytes that made it, then EOF.
	got, err := io.ReadAll(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("peer received %d bytes, want 100", len(got))
	}
	if st.Load(stats.LinkFaults) != 1 {
		t.Fatalf("faults = %d, want 1", st.Load(stats.LinkFaults))
	}
}

// TestReadStopsAtDropOffset: a read spanning the drop offset returns
// exactly the bytes before it, whatever the reader's buffer size, and
// the next read sees the drop.
func TestReadStopsAtDropOffset(t *testing.T) {
	msg := make([]byte, 200)
	for i := range msg {
		msg[i] = byte(i)
	}
	for _, size := range []int{1, 7, 39, 40, 41, 64, 200, 4096} {
		c, s := pair(t)
		if _, err := s.Write(msg); err != nil {
			t.Fatal(err)
		}
		fc := Wrap(c, Config{Seed: 1, DropAfterMin: 40, DropAfterMax: 40}, nil)
		var got []byte
		buf := make([]byte, size)
		var err error
		for err == nil {
			var n int
			n, err = fc.Read(buf)
			got = append(got, buf[:n]...)
		}
		if !IsInjected(err) {
			t.Fatalf("buffer %d: read ended with %v, want the injected drop", size, err)
		}
		if !bytes.Equal(got, msg[:40]) {
			t.Fatalf("buffer %d: %d bytes got through, want the 40 before the drop", size, len(got))
		}
	}
}

func TestCorruptFlipsOneBit(t *testing.T) {
	c, s := pair(t)
	st := stats.New()
	fc := Wrap(c, Config{Seed: 1, CorruptAfterMin: 10, CorruptAfterMax: 10}, st)

	msg := make([]byte, 32)
	for i := range msg {
		msg[i] = byte(i)
	}
	if _, err := s.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(fc, got); err != nil {
		t.Fatal(err)
	}
	diffs := 0
	for i := range msg {
		if got[i] != msg[i] {
			diffs++
			if i != 9 {
				t.Errorf("byte %d corrupted, expected offset 9", i)
			}
			if got[i] != msg[i]^0x80 {
				t.Errorf("byte %d = %#x, want single flipped bit", i, got[i])
			}
		}
	}
	if diffs != 1 {
		t.Fatalf("%d bytes corrupted, want exactly 1", diffs)
	}
	if st.Load(stats.LinkFaults) != 1 {
		t.Fatalf("faults = %d, want 1", st.Load(stats.LinkFaults))
	}
}

func TestLatencyChargedPerRoundTrip(t *testing.T) {
	c, s := pair(t)
	fc := Wrap(c, Config{Seed: 1, Latency: 30 * time.Millisecond}, nil)
	go func() { // echo one byte
		buf := make([]byte, 1)
		io.ReadFull(s, buf)
		s.Write(buf)
	}()
	start := time.Now()
	fc.Write([]byte{7})
	buf := make([]byte, 1)
	if _, err := io.ReadFull(fc, buf); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("round trip took %v, want ≥ 30ms of injected latency", d)
	}
}

// TestDialerDeterministic pins the seeding contract: two dialers with
// the same seed hand out the same per-connection fault offsets in dial
// order.
func TestDialerDeterministic(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	cfg := Config{Seed: 42, DropAfterMin: 1000, DropAfterMax: 100000,
		CorruptAfterMin: 500, CorruptAfterMax: 50000}
	offsets := func() (drops, corrupts []int64) {
		d := NewDialer(lis.Addr().String(), cfg)
		for i := 0; i < 5; i++ {
			conn, err := d.Dial()
			if err != nil {
				t.Fatal(err)
			}
			fc := conn.(*Conn)
			drops = append(drops, fc.dropAt)
			corrupts = append(corrupts, fc.corruptAt)
			conn.Close()
		}
		if d.Dials() != 5 {
			t.Fatalf("Dials = %d", d.Dials())
		}
		return
	}
	d1, c1 := offsets()
	d2, c2 := offsets()
	for i := range d1 {
		if d1[i] != d2[i] || c1[i] != c2[i] {
			t.Fatalf("dial %d offsets diverged: %d/%d vs %d/%d", i, d1[i], c1[i], d2[i], c2[i])
		}
		if d1[i] < cfg.DropAfterMin || d1[i] > cfg.DropAfterMax {
			t.Fatalf("drop offset %d outside configured range", d1[i])
		}
	}
}

func TestListenerWrapsAccepted(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := NewListener(lis, Config{Seed: 3, DropAfterMin: 10, DropAfterMax: 10}, nil)
	defer fl.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := fl.Accept()
		if err != nil {
			accepted <- nil
			return
		}
		accepted <- c
	}()
	client, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	sc := <-accepted
	if sc == nil {
		t.Fatal("accept failed")
	}
	defer sc.Close()
	fc, ok := sc.(*Conn)
	if !ok {
		t.Fatalf("accepted conn is %T, not *faultnet.Conn", sc)
	}
	if fc.dropAt != 10 {
		t.Fatalf("dropAt = %d, want 10", fc.dropAt)
	}
}
