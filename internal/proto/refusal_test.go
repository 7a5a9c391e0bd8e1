package proto

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/stats"
)

// TestServerRefusals pins the server's one failure path frame by frame:
// how much each refusal adds to proto.errors, that it answers with a
// sanitized error frame, and that only a session that had started is
// parked for a resume.
func TestServerRefusals(t *testing.T) {
	cases := []struct {
		name       string
		empty      bool // serve an empty registry
		send       func(t *testing.T, r *Reader, w *Writer)
		want       string // substring of the error frame's text
		wantErrors int64
		wantParked int
	}{
		{
			name: "malformed scene select",
			send: func(t *testing.T, r *Reader, w *Writer) {
				w.u8(TagScene)
				w.i32(-1)
				w.w.Flush()
			},
			want:       "bad scene name length",
			wantErrors: 1,
		},
		{
			name: "select after start",
			send: func(t *testing.T, r *Reader, w *Writer) {
				if err := w.WriteRequest(Request{}); err != nil {
					t.Fatal(err)
				}
				if tag, err := r.ReadTag(); err != nil || tag != TagResponse {
					t.Fatalf("request answered tag %d, %v", tag, err)
				}
				if _, err := r.ReadResponse(); err != nil {
					t.Fatal(err)
				}
				if err := w.WriteSceneSelect("beta"); err != nil {
					t.Fatal(err)
				}
			},
			want:       "scene select after session start",
			wantErrors: 1,
			wantParked: 1,
		},
		{
			name: "unknown scene",
			send: func(t *testing.T, r *Reader, w *Writer) {
				if err := w.WriteSceneSelect("gamma"); err != nil {
					t.Fatal(err)
				}
			},
			want:       "unknown scene: gamma",
			wantErrors: 1,
		},
		{
			name: "malformed request",
			send: func(t *testing.T, r *Reader, w *Writer) {
				w.u8(TagRequest)
				w.i64(0)
				w.i32(-1)
				w.w.Flush()
			},
			want:       "sub-query count",
			wantErrors: 1,
		},
		{
			name: "unexpected tag",
			send: func(t *testing.T, r *Reader, w *Writer) {
				w.u8(TagResponse)
				w.w.Flush()
			},
			want:       "unexpected message",
			wantErrors: 1,
		},
		{
			name:  "empty registry",
			empty: true,
			want:  "no scenes registered",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := stats.New()
			var srv *Server
			var addr string
			var shutdown func()
			if tc.empty {
				srv = NewMultiServer(engine.NewRegistry(), t.Logf)
				srv.SetStats(st)
				lis, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				done := make(chan struct{})
				go func() { defer close(done); srv.Serve(lis) }()
				addr, shutdown = lis.Addr().String(), func() { srv.Close(); <-done }
			} else {
				srv, addr, _, _, shutdown = startMultiSceneServer(t, st)
			}
			defer shutdown()

			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(10 * time.Second))
			r, w := NewReader(conn), NewWriter(conn)
			if !tc.empty {
				if tag, err := r.ReadTag(); err != nil || tag != TagHello {
					t.Fatalf("greeting tag %d, %v", tag, err)
				}
				if _, err := r.ReadHello(); err != nil {
					t.Fatal(err)
				}
				tc.send(t, r, w)
			}
			tag, err := r.ReadTag()
			if err != nil || tag != TagError {
				t.Fatalf("refusal answered tag %d, %v; want an error frame", tag, err)
			}
			msg, err := r.ReadError()
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(msg, tc.want) || msg != SanitizeWireError(errors.New(msg)) {
				t.Fatalf("error frame %q: want sanitized text containing %q", msg, tc.want)
			}
			// Close waits for the handler, so its parking is done.
			srv.Close()
			if got := st.Load(stats.ProtoErrors); got != tc.wantErrors {
				t.Errorf("proto.errors = %d, want %d", got, tc.wantErrors)
			}
			if got := parked(srv); got != tc.wantParked {
				t.Errorf("parked sessions = %d, want %d", got, tc.wantParked)
			}
		})
	}
}
