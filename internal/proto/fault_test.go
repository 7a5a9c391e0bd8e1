package proto

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/retrieval"
	"repro/internal/rtree"
	"repro/internal/workload"
)

// TestTruncatedStreams feeds every prefix of a valid message sequence to
// the reader: decoding must fail cleanly (no panic, no hang, no bogus
// success) for every cut shorter than the full message.
func TestTruncatedStreams(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteHello(Hello{Version: Version, Objects: 3, Levels: 2, BaseVerts: 6,
		Space: geom.R2(0, 0, 10, 10)}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteResponse(Response{IO: 1, Coeffs: []Coeff{
		{Object: 1, Vertex: 2, Delta: geom.V3(1, 2, 3), Value: 0.5},
	}}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	for cut := 0; cut < len(full); cut++ {
		r := NewReader(bytes.NewReader(full[:cut]))
		tag, err := r.ReadTag()
		if err != nil {
			continue // truncated before the first tag: fine
		}
		switch tag {
		case TagHello:
			if _, err := r.ReadHello(); err == nil {
				// The hello itself fits in the prefix; the response must
				// then fail.
				tag2, err2 := r.ReadTag()
				if err2 != nil {
					continue
				}
				if tag2 == TagResponse {
					if _, err3 := r.ReadResponse(); err3 == nil && cut < len(full) {
						t.Fatalf("cut %d: truncated response decoded successfully", cut)
					}
				}
			}
		default:
			// A corrupt tag is acceptable as long as nothing panics.
		}
	}
}

// TestGarbageInput throws random bytes at the reader.
func TestGarbageInput(t *testing.T) {
	junk := []byte{0xFF, 0x00, 0x13, 0x37, 0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02}
	r := NewReader(bytes.NewReader(junk))
	tag, err := r.ReadTag()
	if err != nil {
		return
	}
	switch tag {
	case TagHello:
		if _, err := r.ReadHello(); err == nil {
			t.Error("garbage decoded as hello")
		}
	case TagRequest:
		if _, err := r.ReadRequest(); err == nil {
			t.Error("garbage decoded as request")
		}
	case TagResponse:
		// 0x00... would be a zero-coefficient response; acceptable only if
		// counts validate.
		if resp, err := r.ReadResponse(); err == nil && len(resp.Coeffs) > 0 {
			t.Error("garbage decoded as non-empty response")
		}
	}
}

// TestServerSurvivesAbruptDisconnect kills the connection mid-request and
// verifies the server keeps serving other clients.
func TestServerSurvivesAbruptDisconnect(t *testing.T) {
	addr, _, shutdown := startTestServer(t)
	defer shutdown()

	// Open, half-write a request, slam the connection.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(conn)
	if tag, err := r.ReadTag(); err != nil || tag != TagHello {
		t.Fatalf("tag %d err %v", tag, err)
	}
	if _, err := r.ReadHello(); err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte{TagRequest, 0x01, 0x02}) // torn request
	conn.Close()

	// The server must still answer a healthy client.
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Frame(geom.R2(0, 0, 1000, 1000), 0.5); err != nil {
		t.Fatalf("healthy client failed after torn peer: %v", err)
	}
}

// TestServerRejectsOversizedRequest sends a request whose count exceeds
// the protocol limit and expects the connection to be refused politely.
func TestServerRejectsOversizedRequest(t *testing.T) {
	addr, _, shutdown := startTestServer(t)
	defer shutdown()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := NewReader(conn)
	r.ReadTag()
	if _, err := r.ReadHello(); err != nil {
		t.Fatal(err)
	}
	// Hand-craft a request header claiming 10000 sub-queries.
	var buf bytes.Buffer
	bw := NewWriter(&buf)
	bw.u8(TagRequest)
	bw.f64(0.5)
	bw.i32(10000)
	bw.w.Flush()
	conn.Write(buf.Bytes())

	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	tag, err := r.ReadTag()
	if err != nil {
		return // server dropped the connection: acceptable
	}
	if tag != TagError {
		t.Fatalf("expected error tag, got %d", tag)
	}
	msg, err := r.ReadError()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(msg, "sub-query") {
		t.Errorf("error message %q", msg)
	}
}

// TestSanitizeWireError pins down the error-reflection contract: whatever
// an internal decode error carries — control bytes, terminal escapes,
// multi-line log-forgery text, unbounded length — the string sent to the
// peer is printable ASCII capped at MaxWireErrorLen.
func TestSanitizeWireError(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"plain message", "plain message"},
		{"line one\nline two\r\x1b[31mred", "line one?line two??[31mred"},
		{"null \x00 byte and tab \t here", "null ? byte and tab ? here"},
		{"non-ascii café 世界", "non-ascii caf? ??"},
	}
	for _, c := range cases {
		if got := SanitizeWireError(fmt.Errorf("%s", c.in)); got != c.want {
			t.Errorf("sanitize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	long := strings.Repeat("x", 10*MaxWireErrorLen)
	if got := SanitizeWireError(fmt.Errorf("%s", long)); len(got) != MaxWireErrorLen {
		t.Errorf("long error capped to %d bytes, want %d", len(got), MaxWireErrorLen)
	}
	// Truncation may split a multibyte rune; the torn tail must still come
	// out as printable ASCII.
	torn := strings.Repeat("y", MaxWireErrorLen-1) + "é"
	got := SanitizeWireError(fmt.Errorf("%s", torn))
	if len(got) > MaxWireErrorLen {
		t.Errorf("torn-rune error is %d bytes", len(got))
	}
	for i := 0; i < len(got); i++ {
		if got[i] < 0x20 || got[i] > 0x7e {
			t.Errorf("byte %d of sanitized error is %#x", i, got[i])
		}
	}
}

// TestServerErrorReplyIsSanitized sends a malformed request over the wire
// and checks the error reply obeys the sanitization contract end to end.
func TestServerErrorReplyIsSanitized(t *testing.T) {
	addr, _, shutdown := startTestServer(t)
	defer shutdown()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := NewReader(conn)
	r.ReadTag()
	if _, err := r.ReadHello(); err != nil {
		t.Fatal(err)
	}
	// A request header with a hostile sub-query count.
	var buf bytes.Buffer
	bw := NewWriter(&buf)
	bw.u8(TagRequest)
	bw.f64(0.25)
	bw.i32(-1)
	bw.w.Flush()
	conn.Write(buf.Bytes())

	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	tag, err := r.ReadTag()
	if err != nil {
		t.Fatalf("no error reply: %v", err)
	}
	if tag != TagError {
		t.Fatalf("expected error tag, got %d", tag)
	}
	msg, err := r.ReadError()
	if err != nil {
		t.Fatal(err)
	}
	if len(msg) == 0 || len(msg) > MaxWireErrorLen {
		t.Fatalf("error reply length %d outside (0, %d]", len(msg), MaxWireErrorLen)
	}
	for i := 0; i < len(msg); i++ {
		if msg[i] < 0x20 || msg[i] > 0x7e {
			t.Fatalf("error reply byte %d is %#x, not printable ASCII", i, msg[i])
		}
	}
}

// TestClientRejectsNonHelloGreeting ensures the client fails fast when
// the peer is not a protocol server.
func TestClientRejectsNonHelloGreeting(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		io.WriteString(conn, "HTTP/1.1 400 Bad Request\r\n\r\n")
		conn.Close()
	}()
	if _, err := Dial(lis.Addr().String(), nil); err == nil {
		t.Fatal("client accepted a non-protocol server")
	}
}

// TestPlanOnlyClientSubQueriesFitProtocol verifies Algorithm 1 never
// plans more sub-queries than the protocol allows.
func TestPlanOnlyClientSubQueriesFitProtocol(t *testing.T) {
	c := retrieval.NewClient(nil, nil)
	q := geom.R2(0, 0, 100, 100)
	for i := 0; i < 50; i++ {
		subs := c.PlanFrame(q, float64(i%10)/10)
		if len(subs) > MaxSubQueries {
			t.Fatalf("plan of %d sub-queries exceeds protocol limit", len(subs))
		}
		c.Advance(q, float64(i%10)/10)
		q = q.Translate(geom.V2(13, -7))
	}
}

// TestListenAndServe exercises the convenience entry point on an
// ephemeral port.
func TestListenAndServe(t *testing.T) {
	d := workload.Generate(workload.Spec{NumObjects: 2, Levels: 2, Seed: 40})
	idx := index.NewMotionAware(d.Store, index.XYW, rtree.Config{})
	var addr string
	ready := make(chan struct{})
	srv := NewServer(retrieval.NewServer(d.Store, idx), d.Spec.Levels,
		func(format string, args ...any) {
			if strings.Contains(format, "listening") {
				addr = fmt.Sprintf("%v", args[0])
				close(ready)
			}
		})
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0") }()
	select {
	case <-ready:
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("server never reported its address")
	}
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Frame(geom.R2(0, 0, 1000, 1000), 1); err != nil {
		t.Fatal(err)
	}
	c.Close()
	srv.Close()
	if err := <-done; err != nil {
		t.Fatalf("serve returned %v", err)
	}
}

// TestCloseBeforeServe is the regression for a Close that wins the race
// with Serve's start: Serve must see it when it stores the listener,
// close the listener and return nil instead of accepting forever.
func TestCloseBeforeServe(t *testing.T) {
	d := workload.Generate(workload.Spec{NumObjects: 2, Levels: 1, Seed: 5})
	idx := index.NewMotionAware(d.Store, index.XYW, rtree.Config{})
	srv := NewServer(retrieval.NewServer(d.Store, idx), d.Spec.Levels, t.Logf)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	srv.Close()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve after Close returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve after Close is still accepting")
	}
	if conn, err := lis.Accept(); err == nil {
		conn.Close()
		t.Fatal("listener still open after Serve returned")
	}
}

// TestListenAndServeBadAddr covers the bind-failure path.
func TestListenAndServeBadAddr(t *testing.T) {
	d := workload.Generate(workload.Spec{NumObjects: 1, Levels: 1, Seed: 41})
	idx := index.NewMotionAware(d.Store, index.XYW, rtree.Config{})
	srv := NewServer(retrieval.NewServer(d.Store, idx), 1, nil)
	if err := srv.ListenAndServe("256.256.256.256:99999"); err == nil {
		t.Fatal("bogus address accepted")
	}
}
