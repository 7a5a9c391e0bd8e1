package proto

import (
	"fmt"
	"math/rand"
	"net"
	"time"

	"repro/internal/abr"
	"repro/internal/geom"
	"repro/internal/retrieval"
	"repro/internal/stats"
	"repro/internal/wavelet"
)

// ResilientConfig tunes a ResilientClient. The zero value of every field
// except Dial/Addrs gets a sensible default.
type ResilientConfig struct {
	// Dial opens a fresh connection to the server. Called for the
	// initial connection and after every transport failure; wrap it
	// with faultnet to model a degraded wireless link. Exactly one of
	// Dial and Addrs is required; when both are set, Dial wins.
	Dial func() (net.Conn, error)
	// Addrs is the gateway-aware alternative to Dial: a list of
	// equivalent serving addresses (several gateways, or a scene's
	// replica set) tried in rotation. A dial failure rotates to the next
	// address, so a permanently dead entry costs one failed attempt per
	// revolution instead of wedging the client; a successful dial pins
	// the rotation to that address until it fails. Resume semantics are
	// unchanged — the token travels with the client, not the address.
	Addrs []string
	// DialTimeout bounds one Addrs dial attempt (default: FrameTimeout).
	// Ignored when Dial is set.
	DialTimeout time.Duration
	// MapSpeed is the speed→resolution mapping of §IV (nil = Identity).
	// Degraded mode composes on top of it.
	MapSpeed retrieval.MapSpeedToResolution
	// Scene binds the session to a named engine scene ("" accepts the
	// server's default). Reconnects re-select it before resuming.
	Scene string
	// FrameTimeout bounds one frame attempt (write + round-trip + read).
	// Default 10s.
	FrameTimeout time.Duration
	// MaxAttempts bounds dial/frame attempts per Frame call. Default 8.
	MaxAttempts int
	// BackoffBase and BackoffMax shape the capped exponential backoff
	// between attempts. Defaults 50ms and 2s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed makes the backoff jitter deterministic (tests, experiments).
	Seed int64
	// ABR enables the adaptive-bitrate loop (non-nil): every frame ships
	// as a budgeted request sized by the bandwidth/RTT estimator, and
	// the server truncates along the viewport-utility plan instead of
	// the client coarsening wholesale. The two-state degraded floor
	// (DegradeAfter/DegradeStep) stays armed underneath as the
	// last-resort fallback — it only engages after the timeouts that
	// mean even minimum-budget frames are not completing. Zero-value
	// abr.Config fields get their defaults.
	ABR *abr.Config
	// DegradeAfter is the number of consecutive timeouts before the
	// client coarsens its requested resolution (raises the effective
	// wmin) — the paper's speed/resolution tradeoff reused as a
	// bandwidth fallback. 0 disables degraded mode.
	DegradeAfter int
	// DegradeStep is how much each degradation raises the wmin floor
	// (default 0.2, floor capped at 1). Successful frames halve the
	// floor back toward full resolution.
	DegradeStep float64
	// Stats receives retry/timeout/resume/degraded counters (nil = none).
	Stats *stats.Stats

	// sleep is a test seam; nil uses time.Sleep.
	sleep func(time.Duration)
}

// ResilientClient wraps Client with the failure policy a wireless
// deployment needs: per-frame deadlines, capped exponential backoff with
// jitter, automatic re-dial with session resumption, and a degraded mode
// that trades resolution for survivable bandwidth after repeated
// timeouts. It is not safe for concurrent use (one client = one mobile
// user), matching Client.
type ResilientClient struct {
	cfg  ResilientConfig
	c    *Client
	rng  *rand.Rand
	dead bool            // connection must be re-established before the next frame
	abr  *abr.Controller // nil unless cfg.ABR enables the budgeted loop

	// addrIdx points at the Addrs entry the rotation is currently pinned
	// to; dial failures advance it.
	addrIdx int

	consecTimeouts int
	floor          float64 // degraded-mode wmin floor (0 = full resolution)

	// Lifetime totals, also mirrored into cfg.Stats.
	Retries  int64
	Timeouts int64
	Resumes  int64 // successful session resumptions
	Replans  int64 // reconnects that fell back to a full re-plan
}

// DialResilient connects (retrying per the config) and performs the
// handshake.
func DialResilient(cfg ResilientConfig) (*ResilientClient, error) {
	if cfg.Dial == nil && len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("proto: ResilientConfig needs Dial or Addrs")
	}
	if cfg.FrameTimeout <= 0 {
		cfg.FrameTimeout = 10 * time.Second
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = cfg.FrameTimeout
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 8
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 50 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 2 * time.Second
	}
	if cfg.DegradeStep <= 0 {
		cfg.DegradeStep = 0.2
	}
	if cfg.sleep == nil {
		cfg.sleep = time.Sleep
	}
	rc := &ResilientClient{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	if cfg.ABR != nil {
		rc.abr = abr.NewController(*cfg.ABR)
	}
	var lastErr error
	for attempt := 0; attempt < cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			rc.backoff(attempt)
		}
		if lastErr = rc.connect(); lastErr == nil {
			return rc, nil
		}
	}
	return nil, fmt.Errorf("proto: connect failed after %d attempts: %w", cfg.MaxAttempts, lastErr)
}

// mapSpeed composes the configured speed→resolution mapping with the
// degraded-mode floor.
func (rc *ResilientClient) mapSpeed(speed float64) float64 {
	base := rc.cfg.MapSpeed
	if base == nil {
		base = retrieval.Identity
	}
	w := base(speed)
	if w < rc.floor {
		w = rc.floor
	}
	if w > 1 {
		w = 1
	}
	return w
}

// dial opens one connection: through cfg.Dial when set, otherwise to
// the address the rotation is pinned to.
func (rc *ResilientClient) dial() (net.Conn, error) {
	if rc.cfg.Dial != nil {
		return rc.cfg.Dial()
	}
	addr := rc.cfg.Addrs[rc.addrIdx%len(rc.cfg.Addrs)]
	conn, err := net.DialTimeout("tcp", addr, rc.cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("proto: dial %s: %w", addr, err)
	}
	return conn, nil
}

// Addr returns the rotation's current address ("" when a custom Dial is
// configured).
func (rc *ResilientClient) Addr() string {
	if len(rc.cfg.Addrs) == 0 {
		return ""
	}
	return rc.cfg.Addrs[rc.addrIdx%len(rc.cfg.Addrs)]
}

// connect establishes (or re-establishes) the connection. After the
// first success it reconnects the existing client, preserving planner
// and reconstruction state and attempting a session resume. In Addrs
// mode any failure — dial or handshake — advances the rotation, so a
// permanently dead or broken replica costs one attempt per revolution.
func (rc *ResilientClient) connect() (err error) {
	if len(rc.cfg.Addrs) > 0 {
		defer func() {
			if err != nil {
				rc.addrIdx++
			}
		}()
	}
	conn, err := rc.dial()
	if err != nil {
		return err
	}
	conn.SetDeadline(time.Now().Add(rc.cfg.FrameTimeout))
	defer func() {
		if err == nil {
			rc.c.conn.SetDeadline(time.Time{})
		}
	}()
	if rc.c == nil {
		var c *Client
		if c, err = NewSceneClient(conn, rc.cfg.Scene, rc.mapSpeed); err != nil {
			return err
		}
		rc.c = c
		rc.dead = false
		return nil
	}
	var resumed bool
	if resumed, err = rc.c.Reconnect(conn); err != nil {
		return err
	}
	if resumed {
		rc.Resumes++
		rc.cfg.Stats.Add(stats.ClientResumes, 1)
	} else {
		rc.Replans++
		rc.cfg.Stats.Add(stats.ClientReplans, 1)
	}
	rc.dead = false
	return nil
}

// Frame issues one continuous-query frame, retrying through transport
// failures until it succeeds or the attempt budget is spent. Each
// attempt runs under the frame deadline; failed attempts back off
// exponentially (with jitter), re-dial, and resume the session. The
// frame that finally succeeds delivers exactly what a fault-free frame
// would have (see the Client retry-safety contract).
func (rc *ResilientClient) Frame(q geom.Rect2, speed float64) (int, error) {
	var lastErr error
	for attempt := 0; attempt < rc.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			rc.backoff(attempt)
		}
		if rc.dead {
			if err := rc.connect(); err != nil {
				lastErr = err
				rc.noteFailure(err)
				continue
			}
		}
		rc.c.conn.SetDeadline(time.Now().Add(rc.cfg.FrameTimeout))
		var n int
		var err error
		if rc.abr != nil {
			// ABR path: budget the frame from the estimator, publish the
			// loop's state, and feed the transfer accounting back. The
			// round-trip time measured here spans request write to
			// response applied — exactly the linear link model the
			// estimator fits.
			budget := rc.abr.Budget()
			rc.cfg.Stats.Set(stats.ClientABRBandwidth, rc.abr.Bandwidth())
			rc.cfg.Stats.Set(stats.ClientABRRTTNs, int64(rc.abr.RTT()))
			rc.cfg.Stats.Set(stats.ClientABRBudget, budget)
			start := time.Now()
			n, _, err = rc.c.FrameBudget(q, speed, budget, rc.abr.Rings())
			if err == nil {
				rc.abr.Observe(int64(n)*wavelet.WireBytes, time.Since(start))
			}
		} else {
			n, err = rc.c.Frame(q, speed)
		}
		if err == nil {
			rc.c.conn.SetDeadline(time.Time{})
			rc.noteSuccess()
			return n, nil
		}
		lastErr = err
		rc.noteFailure(err)
	}
	return 0, fmt.Errorf("proto: frame failed after %d attempts: %w", rc.cfg.MaxAttempts, lastErr)
}

// backoff sleeps for min(BackoffMax, BackoffBase·2^(attempt−1)) plus up
// to 50% deterministic jitter.
func (rc *ResilientClient) backoff(attempt int) {
	d := rc.cfg.BackoffBase << (attempt - 1)
	if d > rc.cfg.BackoffMax || d <= 0 {
		d = rc.cfg.BackoffMax
	}
	d += time.Duration(rc.rng.Int63n(int64(d)/2 + 1))
	rc.cfg.Stats.Add(stats.ClientRetries, 1)
	rc.cfg.Stats.Observe(stats.ClientBackoffNs, int64(d))
	rc.Retries++
	rc.cfg.sleep(d)
}

// noteFailure abandons the connection and updates timeout/degradation
// accounting.
func (rc *ResilientClient) noteFailure(err error) {
	if rc.c != nil && !rc.dead {
		rc.c.conn.Close()
	}
	rc.dead = true
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		rc.Timeouts++
		rc.cfg.Stats.Add(stats.ClientTimeouts, 1)
		if rc.abr != nil {
			// No transfer sample arrived; apply the multiplicative
			// decrease so the next frame's budget halves.
			rc.abr.Penalize()
		}
		rc.consecTimeouts++
		if rc.cfg.DegradeAfter > 0 && rc.consecTimeouts >= rc.cfg.DegradeAfter {
			rc.consecTimeouts = 0
			if rc.floor < 1 {
				rc.floor += rc.cfg.DegradeStep
				if rc.floor > 1 {
					rc.floor = 1
				}
				rc.cfg.Stats.Add(stats.ClientDegraded, 1)
			}
		}
	}
}

// noteSuccess decays degraded mode back toward full resolution.
func (rc *ResilientClient) noteSuccess() {
	rc.consecTimeouts = 0
	rc.floor /= 2
	if rc.floor < 1e-3 {
		rc.floor = 0
	}
}

// DegradeFloor returns the current degraded-mode wmin floor (0 when
// running at full resolution).
func (rc *ResilientClient) DegradeFloor() float64 { return rc.floor }

// ABR returns the adaptive-bitrate controller (nil when the config did
// not enable it) — the observability hook harnesses read bandwidth, RTT
// and budget from.
func (rc *ResilientClient) ABR() *abr.Controller { return rc.abr }

// Client exposes the underlying protocol client (hello, meshes, totals).
// Do not issue frames on it directly while using the resilient wrapper.
func (rc *ResilientClient) Client() *Client { return rc.c }

// Hello returns the dataset schema announced by the server.
func (rc *ResilientClient) Hello() Hello { return rc.c.hello }

// Close sends a goodbye and closes the connection.
func (rc *ResilientClient) Close() error {
	if rc.c == nil {
		return nil
	}
	return rc.c.Close()
}
