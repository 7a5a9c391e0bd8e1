// Package faultnet wraps net.Conn with deterministic, seedable fault
// injection: added latency, bandwidth throttling, connection
// drops and short writes at scheduled byte offsets, and in-flight byte
// corruption. It plays two roles: the wireless-link model for the
// paper's experiments (a 256 Kbps mobile link drops, stalls, and damages
// frames as a matter of course) and the test harness for the protocol's
// fault-tolerance layer — checksums, session resumption, and the
// resilient client are all exercised against it.
//
// Determinism: all fault offsets are drawn from a rand source seeded by
// Config.Seed, and a Dialer draws each connection's offsets in dial
// order, so a test that replays the same traffic against the same seed
// injects the same faults. (Latency and throttling spend real wall-clock
// time but never change what bytes flow.)
package faultnet

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// Config describes the link's behavior. The zero value is a transparent
// wrapper (no faults, no delay).
type Config struct {
	// Seed drives every random draw (the fault offsets).
	Seed int64
	// Latency is added once per write→read turnaround, modeling the
	// round-trip cost of a request/response exchange.
	Latency time.Duration
	// Throttle, when non-nil, paces reads and writes to its schedule (a
	// flat profile is a fixed rate; nil = unthrottled). The pointer is
	// shared by every connection the config wraps (Dialer and Listener
	// copy the config per connection but keep the pointer), so redials
	// continue the same trace rather than restarting it; the trace epoch
	// is pinned when the first throttled connection is wrapped.
	Throttle *Profile
	// DropAfterMin/Max: each connection is reset after a total traffic
	// volume (read + written bytes) drawn uniformly from [Min, Max].
	// Zero disables drops. A drop that lands mid-write surfaces as a
	// short write: n < len(p) with an error.
	DropAfterMin, DropAfterMax int64
	// CorruptAfterMin/Max: a bit is flipped in the read stream after a
	// byte count drawn uniformly from [Min, Max], re-drawn after each
	// corruption (so long-lived connections are corrupted repeatedly).
	// Zero disables corruption.
	CorruptAfterMin, CorruptAfterMax int64
}

// errInjected is the error surfaced by operations on a dropped
// connection.
var errInjected = fmt.Errorf("faultnet: injected connection drop")

// IsInjected reports whether err came from an injected fault (as opposed
// to a real transport failure).
func IsInjected(err error) bool { return err == errInjected }

// Conn is a net.Conn with fault injection. Create one with Wrap or
// through a Dialer/Listener.
type Conn struct {
	net.Conn
	cfg Config
	st  *stats.Stats

	mu        sync.Mutex // guards rng and the corruption schedule
	rng       *rand.Rand
	corruptAt int64 // next read-byte offset to corrupt (0 = never)
	readBytes int64

	dropAt  int64 // total-byte offset at which the conn dies (0 = never)
	total   atomic.Int64
	dropped atomic.Bool
	pending atomic.Bool // a write happened; charge RTT on the next read
}

// Wrap applies the config to an established connection. The stats
// collector (may be nil) counts injected faults in its link.faults row.
func Wrap(conn net.Conn, cfg Config, st *stats.Stats) *Conn {
	rng := rand.New(rand.NewSource(cfg.Seed))
	c := &Conn{Conn: conn, cfg: cfg, st: st, rng: rng}
	c.dropAt = drawOffset(rng, cfg.DropAfterMin, cfg.DropAfterMax)
	c.corruptAt = drawOffset(rng, cfg.CorruptAfterMin, cfg.CorruptAfterMax)
	if cfg.Throttle != nil {
		cfg.Throttle.Start()
	}
	return c
}

// drawOffset picks a fault offset uniformly in [min, max]; zero bounds
// disable the fault.
func drawOffset(rng *rand.Rand, min, max int64) int64 {
	if max <= 0 {
		return 0
	}
	if min < 1 {
		min = 1
	}
	if max < min {
		max = min
	}
	return min + rng.Int63n(max-min+1)
}

// throttle spends the pacing budget for n bytes at the link's current
// rate (sampled once per call; a transfer is not re-paced mid-sleep).
func (c *Conn) throttle(n int) {
	if c.cfg.Throttle == nil || n <= 0 {
		return
	}
	if bps := c.cfg.Throttle.Rate(time.Now()); bps > 0 {
		time.Sleep(time.Duration(int64(n) * int64(time.Second) / bps))
	}
}

// latency charges one round-trip delay if a write preceded this read.
func (c *Conn) latency() {
	if c.cfg.Latency <= 0 || !c.pending.CompareAndSwap(true, false) {
		return
	}
	time.Sleep(c.cfg.Latency)
}

// Read reads at most up to the drop offset, so the bytes that get
// through before a drop are the same whatever the caller's buffer size.
func (c *Conn) Read(p []byte) (int, error) {
	if c.dropped.Load() {
		return 0, errInjected
	}
	if c.dropAt > 0 {
		room := c.dropAt - c.total.Load()
		if room <= 0 {
			// A concurrent write reached the offset first.
			c.drop()
			return 0, errInjected
		}
		if room < int64(len(p)) {
			p = p[:room]
		}
	}
	c.latency()
	n, err := c.Conn.Read(p)
	c.throttle(n)
	if n > 0 {
		c.corrupt(p[:n])
		if total := c.total.Add(int64(n)); c.dropAt > 0 && total >= c.dropAt {
			// Deliver what arrived, then kill the connection: the next
			// operation (and the peer) sees the reset.
			c.drop()
		}
	}
	return n, err
}

// corrupt flips one bit in buf if the corruption offset falls inside it,
// then re-draws the next offset.
func (c *Conn) corrupt(buf []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	start := c.readBytes
	c.readBytes += int64(len(buf))
	if c.corruptAt <= 0 || c.corruptAt > c.readBytes {
		return
	}
	buf[c.corruptAt-start-1] ^= 0x80
	c.corruptAt = c.readBytes + drawOffset(c.rng, c.cfg.CorruptAfterMin, c.cfg.CorruptAfterMax)
	c.st.Add(stats.LinkFaults, 1)
}

func (c *Conn) Write(p []byte) (int, error) {
	if c.dropped.Load() {
		return 0, errInjected
	}
	if c.dropAt > 0 {
		// A drop landing inside this write surfaces as a short write: only
		// the bytes up to the fault offset reach the wire.
		if room := c.dropAt - c.total.Load(); room < int64(len(p)) {
			n := 0
			if room > 0 {
				n, _ = c.Conn.Write(p[:room])
				c.throttle(n)
				c.total.Add(int64(n))
			}
			c.drop()
			return n, errInjected
		}
	}
	n, err := c.Conn.Write(p)
	c.throttle(n)
	c.total.Add(int64(n))
	c.pending.Store(true)
	if c.dropAt > 0 && c.total.Load() >= c.dropAt {
		c.drop()
		if err == nil {
			err = errInjected
		}
	}
	return n, err
}

// drop kills the connection, counting the fault once.
func (c *Conn) drop() {
	if c.dropped.CompareAndSwap(false, true) {
		c.st.Add(stats.LinkFaults, 1)
		c.Conn.Close()
	}
}

// Dropped reports whether an injected drop has killed the connection.
func (c *Conn) Dropped() bool { return c.dropped.Load() }

// Dialer dials through the fault model: every connection it returns gets
// its own fault offsets drawn, in dial order, from the seeded source —
// the deterministic "flaky wireless link" a resilient client reconnects
// across.
type Dialer struct {
	addr string
	cfg  Config
	st   *stats.Stats

	mu    sync.Mutex
	rng   *rand.Rand
	dials int
}

// NewDialer creates a dialer for addr.
func NewDialer(addr string, cfg Config) *Dialer {
	return &Dialer{addr: addr, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// SetStats counts injected faults in st's link.faults row (nil
// disables).
func (d *Dialer) SetStats(st *stats.Stats) { d.st = st }

// Dials returns how many connections the dialer has opened.
func (d *Dialer) Dials() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dials
}

// Dial opens one faulty connection.
func (d *Dialer) Dial() (net.Conn, error) {
	conn, err := net.Dial("tcp", d.addr)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.dials++
	cfg := d.cfg
	cfg.Seed = d.rng.Int63() // per-conn offsets, deterministic in dial order
	d.mu.Unlock()
	return Wrap(conn, cfg, d.st), nil
}

// Listener wraps every accepted connection in the fault model — the
// server-side half of a degraded link (corrupts the bytes the server
// reads, i.e. client requests).
type Listener struct {
	net.Listener
	cfg Config
	st  *stats.Stats

	mu  sync.Mutex
	rng *rand.Rand
}

// NewListener wraps lis. The stats collector (may be nil) counts
// injected faults.
func NewListener(lis net.Listener, cfg Config, st *stats.Stats) *Listener {
	return &Listener{Listener: lis, cfg: cfg, st: st, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Accept wraps the next connection with its own drawn fault offsets.
func (l *Listener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	cfg := l.cfg
	cfg.Seed = l.rng.Int63()
	l.mu.Unlock()
	return Wrap(conn, cfg, l.st), nil
}
