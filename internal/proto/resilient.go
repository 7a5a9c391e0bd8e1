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
	MapSpeed retrieval.MapSpeedToResolution
	// Scene binds the session to a named engine scene ("" accepts the
	// server's default). Reconnects re-select it before resuming.
	Scene string
	// FrameTimeout bounds one frame attempt (write + round-trip + read).
	// Default 10s.
	FrameTimeout time.Duration
	// MaxAttempts bounds consecutive failed dial/frame attempts per Frame
	// call. Default 8.
	MaxAttempts int
	// BackoffBase and BackoffMax shape the capped exponential backoff
	// between attempts. Defaults 50ms and 2s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed makes the backoff jitter deterministic (tests, experiments).
	Seed int64
	// ABR enables the adaptive-bitrate loop (non-nil): every frame ships
	// as a budgeted request sized by the bandwidth/RTT estimator, and
	// the server truncates along the viewport-utility plan. Zero-value
	// abr.Config fields get their defaults.
	ABR *abr.Config
	// Stats receives retry/timeout/resume/piece counters (nil = none).
	Stats *stats.Stats

	// sleep is a test seam; nil uses time.Sleep.
	sleep func(time.Duration)
}

// ResilientClient wraps Client with the failure policy a wireless
// deployment needs: per-frame deadlines, capped exponential backoff with
// jitter, automatic re-dial with session resumption, and budgeted pieces
// for a frame the link cannot carry whole (see Frame). It is not safe
// for concurrent use (one client = one mobile user), matching Client.
type ResilientClient struct {
	cfg  ResilientConfig
	c    *Client
	rng  *rand.Rand
	dead bool            // connection must be re-established before the next frame
	abr  *abr.Controller // nil unless cfg.ABR enables the budgeted loop

	// addrIdx points at the Addrs entry the rotation is currently pinned
	// to; dial failures advance it.
	addrIdx int

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
		if c, err = NewSceneClient(conn, rc.cfg.Scene, rc.cfg.MapSpeed); err != nil {
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
// failures until it succeeds or MaxAttempts consecutive attempts fail.
// Each attempt runs under the frame deadline; failed attempts back off
// exponentially (with jitter), re-dial, and resume the session. It
// returns the coefficients the frame applied: exactly what a fault-free
// frame delivers (see the Client retry-safety contract).
//
// Short frames. A frame starts whole. After a failed round trip that
// received records the next attempt asks for a budgeted piece: half the
// record bytes the failed connection carried (earlier frames and the
// failed one's partial records), then half the last piece after each
// failed piece, never under one record. A mute or dead server sends
// nothing, so its frame stays whole. While a response withholds coefficients the same request
// goes again, and the server's delivered set returns the next prefix; the
// frame ends at a response that withholds nothing or delivers nothing (a
// cap below one record, a quarantined page). A response resets the
// attempt count. An ABR frame asks for the smaller of the piece and the
// estimator's budget, and ends at its first response.
func (rc *ResilientClient) Frame(q geom.Rect2, speed float64) (int, error) {
	var piece int64 // 0 while the frame goes whole
	total, fails, split := 0, 0, false
	var err error
	for fails < rc.cfg.MaxAttempts {
		if fails > 0 {
			rc.backoff(fails)
		}
		if rc.dead {
			if err = rc.connect(); err != nil {
				rc.noteFailure(err)
				fails++
				continue
			}
		}
		var n int
		var dropped int64
		if n, dropped, err = rc.exchange(q, speed, piece); err != nil {
			// A whole frame that received records goes on in pieces sized
			// by what the connection carried before it failed: earlier
			// frames, then the records this one read. Where a drop lands
			// inside a piece says nothing more, so a failed piece halves.
			if got := len(rc.c.records) / wavelet.WireBytes * wavelet.WireBytes; piece == 0 && got > 0 {
				piece = rc.c.connBytes + int64(got)
			}
			if piece > 0 {
				piece = max(piece/2, wavelet.WireBytes)
			}
			rc.noteFailure(err)
			fails++
			continue
		}
		total += n
		if piece > 0 {
			rc.cfg.Stats.Add(stats.ClientPieces, 1)
			if !split {
				split = true
				rc.cfg.Stats.Add(stats.ClientSplitFrames, 1)
			}
		}
		if rc.abr != nil || dropped == 0 || n == 0 {
			rc.c.conn.SetDeadline(time.Time{})
			return total, nil
		}
		fails = 0
	}
	return total, fmt.Errorf("proto: frame failed after %d attempts: %w", rc.cfg.MaxAttempts, err)
}

// exchange runs one round trip under the frame deadline: an Algorithm-1
// frame under the piece budget (0 = whole), or on the ABR loop a
// viewport frame under the smaller of the piece and estimator budgets.
func (rc *ResilientClient) exchange(q geom.Rect2, speed float64, piece int64) (int, int64, error) {
	rc.c.conn.SetDeadline(time.Now().Add(rc.cfg.FrameTimeout))
	if rc.abr == nil {
		return rc.c.frame(q, speed, piece)
	}
	// Publish the loop's state and feed the transfer accounting back. The
	// round-trip time measured here spans request write to response
	// applied — exactly the linear link model the estimator fits.
	budget := rc.abr.Budget()
	rc.cfg.Stats.Set(stats.ClientABRBandwidth, rc.abr.Bandwidth())
	rc.cfg.Stats.Set(stats.ClientABRRTTNs, int64(rc.abr.RTT()))
	rc.cfg.Stats.Set(stats.ClientABRBudget, budget)
	if piece > 0 {
		budget = min(budget, piece)
	}
	start := time.Now()
	n, dropped, err := rc.c.FrameBudget(q, speed, budget, rc.abr.Rings())
	if err == nil {
		rc.abr.Observe(int64(n)*wavelet.WireBytes, time.Since(start))
	}
	return n, dropped, err
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

// noteFailure abandons the connection and counts a timeout.
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
	}
}

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
