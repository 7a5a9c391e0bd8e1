package proto

import (
	"net"
	"testing"
	"time"
)

// reserveDeadAddr binds an ephemeral port and immediately releases it,
// returning an address that refuses connections for the rest of the
// test (nothing re-listens on it).
func reserveDeadAddr(t *testing.T) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()
	return addr
}

// TestResilientAddrRotation is the regression test for the address-list
// dial path: with the first address permanently dead, the initial
// connect must rotate to the live replica, and after the server severs
// the connection mid-session the client must re-dial and resume —
// proving a dead head entry costs retries, not the session.
func TestResilientAddrRotation(t *testing.T) {
	dead := reserveDeadAddr(t)
	live, d, srv, _, shutdown := startHardenedServer(t, nil)
	defer shutdown()

	rc, err := DialResilient(ResilientConfig{
		Addrs:        []string{dead, live},
		FrameTimeout: 5 * time.Second,
		DialTimeout:  500 * time.Millisecond,
		MaxAttempts:  8,
		BackoffBase:  time.Millisecond,
		BackoffMax:   10 * time.Millisecond,
		Seed:         3,
	})
	if err != nil {
		t.Fatalf("connect through dead head address: %v", err)
	}
	defer rc.Close()
	if got := rc.Addr(); got != live {
		t.Fatalf("rotation pinned to %q, want live replica %q", got, live)
	}

	space := d.Store.Bounds().XY()
	frames := soakTrajectory(11, 6, space)
	for i, f := range frames[:3] {
		if _, err := rc.Frame(f.q, f.speed); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}

	// Sever the live connection server-side (the drain hook); the next
	// frame must re-dial — still skipping the dead head — and resume.
	if n, err := srv.SeverScene(DefaultSceneName); n != 1 || err != nil {
		t.Fatalf("SeverScene closed %d conns (%v), want 1", n, err)
	}
	for i, f := range frames[3:] {
		if _, err := rc.Frame(f.q, f.speed); err != nil {
			t.Fatalf("frame %d after sever: %v", i+3, err)
		}
	}
	if rc.Resumes != 1 {
		t.Fatalf("Resumes = %d, want 1 (session must survive the sever)", rc.Resumes)
	}
	if rc.Replans != 0 {
		t.Fatalf("Replans = %d, want 0 (resume must hit, not re-plan)", rc.Replans)
	}
	if got := rc.Addr(); got != live {
		t.Fatalf("after reconnect rotation pinned to %q, want %q", got, live)
	}
}
