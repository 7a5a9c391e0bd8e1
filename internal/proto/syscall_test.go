package proto

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/hotcache"
	"repro/internal/index"
	"repro/internal/retrieval"
	"repro/internal/stats"
	"repro/internal/wavelet"
	"repro/internal/workload"
)

// countingConn counts the Write calls made on a connection.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// countingListener hands every accepted connection, wrapped in a
// countingConn, to conns.
type countingListener struct {
	net.Listener
	conns chan *countingConn
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: c}
	l.conns <- cc
	return cc, nil
}

// TestResponseIsOneServerWrite: the server writes a response frame in
// one Write on its connection, whatever the frame's size — a 600-record
// frame from the encode path, and a whole-window frame replayed from the
// hot cache.
func TestResponseIsOneServerWrite(t *testing.T) {
	d := workload.Generate(workload.Spec{NumObjects: 8, Levels: 3, Seed: 5})
	rsrv := retrieval.NewServer(d.Store, index.NewSharded(d.Store, index.XYW, index.ShardedConfig{}))
	hot := hotcache.New(hotcache.Config{})
	rsrv.SetHotCache(hot)
	srv := NewServer(rsrv, d.Spec.Levels, t.Logf)
	srv.SetStats(stats.New())
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lis := &countingListener{Listener: inner, conns: make(chan *countingConn, 8)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(lis); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	defer func() { srv.Close(); <-done }()

	// frameWrites runs one budgeted whole-space frame on a fresh
	// connection and returns the records it delivered and the server's
	// writes for it (the hello is the connection's first write).
	window := d.Store.Bounds().XY()
	frameWrites := func(maxBytes int64) (int, int64) {
		t.Helper()
		c, err := Dial(inner.Addr().String(), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		sc := <-lis.conns
		n, _, err := c.frame(window, 0, maxBytes)
		if err != nil {
			t.Fatal(err)
		}
		return n, sc.writes.Load() - 1
	}

	// The budget cuts the window to 600 records, and a truncated frame
	// never touches the hot cache: this is the encode path.
	if n, writes := frameWrites(600 * wavelet.WireBytes); n != 600 || writes != 1 {
		t.Fatalf("600-record frame: %d records in %d server writes, want 600 in 1", n, writes)
	}
	// The window's first ask (the budgeted one) was a first touch; the
	// next encodes the payload into the cache, and every later ask
	// replays it.
	frameWrites(0)
	hits := hot.Stats().PayloadHits
	n, writes := frameWrites(0)
	if hot.Stats().PayloadHits != hits+1 {
		t.Fatal("the last ask did not replay the cached payload")
	}
	if int64(n) != d.Store.NumCoeffs() || writes != 1 {
		t.Fatalf("replayed frame: %d records in %d server writes, want %d in 1", n, writes, d.Store.NumCoeffs())
	}
}

// scriptConn is a net.Conn that counts Reads and answers each Write
// with the next scripted reply: Read returns what has been made
// available so far, never more than asked.
type scriptConn struct {
	net.Conn
	in      bytes.Buffer
	replies [][]byte
	reads   int
}

func (c *scriptConn) Write(p []byte) (int, error) {
	if len(c.replies) > 0 {
		c.in.Write(c.replies[0])
		c.replies = c.replies[1:]
	}
	return len(p), nil
}

func (c *scriptConn) Read(p []byte) (int, error) {
	if c.in.Len() == 0 {
		return 0, io.EOF
	}
	c.reads++
	return c.in.Read(p)
}

func (c *scriptConn) Close() error                     { return nil }
func (c *scriptConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

// TestResponseFewClientReads: the client reads a 600-record response
// frame, which arrives whole, in at most three Reads on its connection.
func TestResponseFewClientReads(t *testing.T) {
	var hello bytes.Buffer
	if err := NewWriter(&hello).WriteHello(Hello{Version: Version, Objects: 100, Levels: 4, BaseVerts: 6, Space: geom.R2(0, 0, 1, 1)}); err != nil {
		t.Fatal(err)
	}
	coeffs := randCoeffs(rand.New(rand.NewSource(4)), 600)
	for i := range coeffs {
		coeffs[i].Vertex %= 1000 // inside a level-4 octahedron
	}
	conn := &scriptConn{replies: [][]byte{responseFrame(t, Response{IO: 5, Seq: 1, Coeffs: coeffs})}}
	conn.in.Write(hello.Bytes())
	c, err := NewClient(conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := conn.reads
	n, err := c.Frame(geom.R2(0, 0, 1, 1), 0)
	if err != nil || n != 600 {
		t.Fatalf("frame: %d records, err %v", n, err)
	}
	if reads := conn.reads - before; reads > 3 {
		t.Fatalf("600-record response took %d client reads, want at most 3", reads)
	}
}

// TestResponseFrameMatchesWriteResponse: a frame the server assembles
// whole (beginResponseFrame, the records, finishResponseFrame) is byte
// for byte the frame WriteResponse streams, for empty frames, frames
// that withhold, and records carrying NaN payloads, −0, ±Inf and
// subnormals — through one reused buffer, growing and shrinking.
func TestResponseFrameMatchesWriteResponse(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	special := []Coeff{{
		Object: -1, Vertex: math.MaxInt32,
		Delta: geom.Vec3{X: math.Float64frombits(0x7ff8_dead_beef_0001), Y: math.Copysign(0, -1), Z: math.Inf(-1)},
		Pos:   [3]float32{math.Float32frombits(0x7fc0_1234), float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32},
		Value: float32(math.Inf(1)),
	}, {
		Delta: geom.Vec3{X: math.SmallestNonzeroFloat64, Y: -math.MaxFloat64, Z: 1e-310},
		Pos:   [3]float32{math.MaxFloat32, -math.MaxFloat32, float32(math.Float64frombits(0x7ff0_0000_0000_0001))},
	}}
	cases := []Response{
		{},
		{IO: 3, Seq: 7, Dropped: 12},
		{IO: 40, Seq: 2, Coeffs: randCoeffs(rng, 600)},
		{IO: 1, Seq: 3, Dropped: 5, Coeffs: randCoeffs(rng, 55)},
		{Seq: 4, Coeffs: special},
		{IO: 9, Seq: 5, Dropped: 1 << 40, Coeffs: randCoeffs(rng, 1)},
	}
	var buf []byte
	for i, resp := range cases {
		buf = beginResponseFrame(buf, len(resp.Coeffs))
		buf = EncodeResponsePayload(buf, resp.Coeffs)
		var err error
		if buf, err = finishResponseFrame(buf, resp.IO, resp.Seq, resp.Dropped); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if want := responseFrame(t, resp); !bytes.Equal(buf, want) {
			t.Fatalf("case %d: assembled frame differs from WriteResponse's (%d vs %d bytes)", i, len(buf), len(want))
		}
		var got Response
		if err := readResponseFrame(NewReader(bytes.NewReader(buf)), &got); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !bytes.Equal(EncodeResponsePayload(nil, got.Coeffs), EncodeResponsePayload(nil, resp.Coeffs)) {
			t.Fatalf("case %d: records do not survive the round trip bit for bit", i)
		}
	}
	if _, err := finishResponseFrame(beginResponseFrame(nil, 0), 0, 1, -1); err == nil {
		t.Fatal("negative dropped count accepted")
	}
}
