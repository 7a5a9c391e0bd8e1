package cluster

import (
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/proto"
	"repro/internal/stats"
)

// GatewayConfig tunes a Gateway; Topology is required.
type GatewayConfig struct {
	Topology *Topology
	// Stats receives per-backend route/failover/probe counters (nil →
	// stats.Default).
	Stats *stats.Stats
	// Logf receives gateway diagnostics (nil discards).
	Logf func(format string, args ...any)
	// ProbeEvery is the health-probe period; 0 disables the prober
	// (routing still marks backends down on dial failure).
	ProbeEvery time.Duration
	// ProbeTimeout bounds one probe's dial + hello round-trip
	// (default 2s).
	ProbeTimeout time.Duration
	// FailAfter is the consecutive probe failures that eject a backend
	// (default 2). A failed routing dial ejects immediately — the
	// evidence is as direct as evidence gets.
	FailAfter int
	// DialTimeout bounds one backend dial during routing (default 2s).
	DialTimeout time.Duration
}

// backendHealth is the prober's per-backend state.
type backendHealth struct {
	down  bool
	fails int // consecutive probe failures
}

// Gateway accepts ordinary protocol clients and proxies each
// connection to the backend owning its scene. The pre-session exchange
// (hello, scene selects, the first resume or request) is parsed frame
// by frame — that is where routing decisions live — and everything
// after is a raw byte splice, so the gateway adds no per-frame work to
// the steady-state serve path.
//
// Failover: a scene maps to a replica list; dialing walks it in order,
// skipping backends marked down, ejecting any that refuse the dial.
// When every listed replica is down, a second hail-mary pass re-tries
// the ejected ones so a recovered backend is re-admitted by the first
// connection that needs it rather than waiting out a probe period.
// Session continuity across a mid-session backend death is the resume
// path's job: the splice breaks, the gateway hangs up, and the
// client's ResilientClient re-dials the gateway with its token.
type Gateway struct {
	cfg  GatewayConfig
	st   *stats.Stats
	logf func(format string, args ...any)

	mu       sync.Mutex
	routes   map[string][]string // scene → replica addresses (drain flips these)
	order    []string
	health   map[string]*backendHealth
	draining map[string]bool
	closed   bool
	lis      net.Listener
	conns    map[net.Conn]struct{}

	// probePause serializes probe rounds against drain critical
	// sections: BeginDrain holds it until FinishDrain/AbortDrain, so a
	// probe's handshake-only session can never be caught by the drain's
	// sever and dragged into the shipped set (lock order: probePause
	// before mu, matching probeLoop → noteProbe).
	probePause sync.Mutex

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewGateway builds a gateway over a validated topology.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	if cfg.Topology == nil || len(cfg.Topology.Order) == 0 {
		return nil, fmt.Errorf("cluster: gateway needs a topology")
	}
	if cfg.Stats == nil {
		cfg.Stats = stats.Default
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = 2
	}
	g := &Gateway{
		cfg:      cfg,
		st:       cfg.Stats,
		logf:     cfg.Logf,
		routes:   make(map[string][]string, len(cfg.Topology.Order)),
		order:    append([]string(nil), cfg.Topology.Order...),
		health:   make(map[string]*backendHealth),
		draining: make(map[string]bool),
		conns:    make(map[net.Conn]struct{}),
		stop:     make(chan struct{}),
	}
	for scene, replicas := range cfg.Topology.Replicas {
		g.routes[scene] = append([]string(nil), replicas...)
		for _, addr := range replicas {
			g.healthOf(addr)
		}
	}
	if cfg.ProbeEvery > 0 {
		g.wg.Add(1)
		go g.probeLoop()
	}
	return g, nil
}

// Serve accepts client connections until the listener closes; nil after
// Close.
func (g *Gateway) Serve(lis net.Listener) error {
	g.mu.Lock()
	g.lis = lis
	g.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			g.mu.Lock()
			closed := g.closed
			g.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		g.mu.Lock()
		if g.closed {
			g.mu.Unlock()
			conn.Close()
			continue
		}
		g.conns[conn] = struct{}{}
		g.wg.Add(1)
		g.mu.Unlock()
		go g.handle(conn)
	}
}

// ListenAndServe binds addr and serves until Close.
func (g *Gateway) ListenAndServe(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	g.logf("cluster: gateway listening on %v", lis.Addr())
	return g.Serve(lis)
}

// Close stops the accept loop and the prober and force-closes every
// proxied connection. Safe to call more than once.
func (g *Gateway) Close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	if g.lis != nil {
		g.lis.Close()
	}
	conns := make([]net.Conn, 0, len(g.conns))
	for c := range g.conns {
		conns = append(conns, c)
	}
	g.mu.Unlock()
	close(g.stop)
	for _, c := range conns {
		c.Close()
	}
	g.wg.Wait()
}

// track registers a backend-side conn for Close; untrack removes any
// conn.
func (g *Gateway) track(c net.Conn) {
	g.mu.Lock()
	if !g.closed {
		g.conns[c] = struct{}{}
	}
	g.mu.Unlock()
}

func (g *Gateway) untrack(c net.Conn) {
	g.mu.Lock()
	delete(g.conns, c)
	g.mu.Unlock()
}

// DefaultScene returns the scene a fresh connection is routed to.
func (g *Gateway) DefaultScene() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.order) == 0 {
		return ""
	}
	return g.order[0]
}

// replicas returns a copy of a scene's replica list (nil = unknown) and
// whether the scene is draining.
func (g *Gateway) replicas(scene string) ([]string, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	reps, ok := g.routes[scene]
	if !ok {
		return nil, false
	}
	return append([]string(nil), reps...), g.draining[scene]
}

// BackendUp reports the prober/router's current view of addr.
func (g *Gateway) BackendUp(addr string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	h := g.health[addr]
	return h != nil && !h.down
}

// healthOf returns addr's health record, creating it on first sight.
// The caller holds g.mu.
func (g *Gateway) healthOf(addr string) *backendHealth {
	h := g.health[addr]
	if h == nil {
		h = &backendHealth{}
		g.health[addr] = h
	}
	return h
}

func (g *Gateway) markDown(addr string) {
	g.mu.Lock()
	h := g.healthOf(addr)
	if !h.down {
		g.logf("cluster: backend %s marked down", addr)
	}
	h.down = true
	g.mu.Unlock()
}

func (g *Gateway) markUp(addr string) {
	g.mu.Lock()
	h := g.healthOf(addr)
	if h.down {
		g.logf("cluster: backend %s re-admitted", addr)
	}
	h.down = false
	h.fails = 0
	g.mu.Unlock()
}

// noteProbe folds one probe outcome into a backend's health, ejecting
// it after FailAfter consecutive failures.
func (g *Gateway) noteProbe(addr string, ok bool) {
	if ok {
		g.markUp(addr)
		return
	}
	g.mu.Lock()
	h := g.healthOf(addr)
	h.fails++
	eject := h.fails >= g.cfg.FailAfter && !h.down
	if eject {
		h.down = true
	}
	g.mu.Unlock()
	if eject {
		// The ejection is the failover step for this backend: routing
		// will silently skip it from now on, so the route-around is
		// accounted here rather than per skipped dial.
		g.st.Label(stats.Backends, addr).Add(stats.BackendFailovers, 1)
		g.logf("cluster: backend %s ejected after %d failed probes", addr, g.cfg.FailAfter)
	}
}

// probeLoop periodically hails every topology backend.
func (g *Gateway) probeLoop() {
	defer g.wg.Done()
	t := time.NewTicker(g.cfg.ProbeEvery)
	defer t.Stop()
	backends := g.cfg.Topology.Backends()
	for {
		select {
		case <-g.stop:
			return
		case <-t.C:
			g.probePause.Lock()
			for _, addr := range backends {
				ok := g.probe(addr)
				row := g.st.Label(stats.Backends, addr)
				row.Add(stats.BackendProbes, 1)
				if !ok {
					row.Add(stats.BackendProbeFails, 1)
				}
				g.noteProbe(addr, ok)
			}
			g.probePause.Unlock()
		}
	}
}

// probe hails one backend: dial, expect a well-formed greeting (hello,
// or an error frame — an empty-but-alive backend greets with one), say
// goodbye. Liveness is "speaks the protocol", not "has scenes".
func (g *Gateway) probe(addr string) bool {
	conn, err := net.DialTimeout("tcp", addr, g.cfg.ProbeTimeout)
	if err != nil {
		return false
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(g.cfg.ProbeTimeout))
	_, err = readGreeting(proto.NewReader(conn))
	if err == nil {
		proto.NewWriter(conn).WriteBye()
		return true
	}
	var refused backendRefusal
	return errors.As(err, &refused)
}

// backendRefusal is the error frame a backend greets with instead of a
// hello (as an empty-but-alive backend does).
type backendRefusal string

func (r backendRefusal) Error() string { return string(r) }

// readGreeting reads a backend's greeting: its hello, a backendRefusal
// for a well-formed error frame, or the error that kept it from being
// either.
func readGreeting(r *proto.Reader) (proto.Hello, error) {
	tag, err := r.ReadTag()
	if err != nil {
		return proto.Hello{}, err
	}
	switch tag {
	case proto.TagHello:
		return r.ReadHello()
	case proto.TagError:
		msg, err := r.ReadError()
		if err != nil {
			return proto.Hello{}, err
		}
		return proto.Hello{}, backendRefusal(msg)
	default:
		return proto.Hello{}, fmt.Errorf("unexpected greeting tag %d", tag)
	}
}

// dialScene opens a connection to a backend serving scene, walking the
// replica list in priority order. Pass one skips backends marked down;
// pass two is the hail mary that re-tries them (and re-admits on
// success). Every backend passed over — down or dial-refused — is
// recorded as a failover step against that backend.
func (g *Gateway) dialScene(scene string) (net.Conn, string, error) {
	replicas, draining := g.replicas(scene)
	if replicas == nil {
		return nil, "", errUnknownScene
	}
	if draining {
		return nil, "", errDraining
	}
	var lastErr error
	for pass := 0; pass < 2; pass++ {
		for _, addr := range replicas {
			down := !g.BackendUp(addr)
			if down != (pass == 1) {
				continue
			}
			conn, err := net.DialTimeout("tcp", addr, g.cfg.DialTimeout)
			if err != nil {
				lastErr = err
				g.markDown(addr)
				g.st.Label(stats.Backends, addr).Add(stats.BackendFailovers, 1)
				continue
			}
			if pass == 1 {
				g.markUp(addr)
			}
			return conn, addr, nil
		}
		if pass == 0 {
			// Count the skipped-down replicas as failover steps only when
			// the healthy pass found nothing — a routine route around one
			// dead replica already recorded its step at ejection time.
			for _, addr := range replicas {
				if !g.BackendUp(addr) {
					g.st.Label(stats.Backends, addr).Add(stats.BackendFailovers, 1)
				}
			}
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("all replicas down")
	}
	return nil, "", fmt.Errorf("cluster: scene %q unavailable: %v", scene, lastErr)
}

// Sentinel routing errors with client-safe wording.
var (
	errUnknownScene = errors.New("unknown scene")
	errDraining     = errors.New("scene draining: retry")
)

// BeginDrain marks a scene draining: new connections for it are refused
// with a retryable error while the controller relocates it, and probing
// is suspended so no handshake-only probe session is live on the source
// when the drain severs and exports the scene. Every successful
// BeginDrain must be paired with exactly one FinishDrain or AbortDrain.
func (g *Gateway) BeginDrain(scene string) error {
	g.probePause.Lock()
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.routes[scene]; !ok {
		g.probePause.Unlock()
		return fmt.Errorf("cluster: unknown scene %q", scene)
	}
	if g.draining[scene] {
		g.probePause.Unlock()
		return fmt.Errorf("cluster: scene %q already draining", scene)
	}
	g.draining[scene] = true
	return nil
}

// AbortDrain lifts a drain without changing routing (the controller's
// failure path).
func (g *Gateway) AbortDrain(scene string) {
	g.mu.Lock()
	delete(g.draining, scene)
	g.mu.Unlock()
	g.probePause.Unlock()
}

// FinishDrain flips a drained scene's routing to its new owner and
// lifts the drain. The replica list becomes the target alone — after a
// segment ship the target holds the only live copy.
func (g *Gateway) FinishDrain(scene, target string) {
	g.mu.Lock()
	g.routes[scene] = []string{target}
	delete(g.draining, scene)
	g.healthOf(target)
	g.mu.Unlock()
	g.probePause.Unlock()
}

// Routes returns a copy of the live routing table (tests, status).
func (g *Gateway) Routes() map[string][]string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string][]string, len(g.routes))
	for scene, reps := range g.routes {
		out[scene] = append([]string(nil), reps...)
	}
	return out
}

// StatusString renders the routing table and backend health (cmd/gateway
// serves it as GET /status).
func (g *Gateway) StatusString() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	var b strings.Builder
	scenes := make([]string, 0, len(g.routes))
	for s := range g.routes {
		scenes = append(scenes, s)
	}
	sort.Strings(scenes)
	for _, s := range scenes {
		state := ""
		if g.draining[s] {
			state = " (draining)"
		}
		fmt.Fprintf(&b, "%s%s = %s\n", s, state, strings.Join(g.routes[s], ", "))
	}
	addrs := make([]string, 0, len(g.health))
	for a := range g.health {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	for _, a := range addrs {
		up := "up"
		if g.health[a].down {
			up = "down"
		}
		fmt.Fprintf(&b, "backend %s: %s\n", a, up)
	}
	return b.String()
}

// refuse sends a sanitized error frame to the client and hangs up.
func (g *Gateway) refuse(conn net.Conn, w *proto.Writer, msg string) {
	conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	if err := w.WriteError(msg); err != nil {
		g.logf("cluster: error reply to %v failed: %v", conn.RemoteAddr(), err)
	}
}

// connectBackend dials a scene's backend and consumes its greeting
// (see greet). Routing failures turn into sanitized client errors.
func (g *Gateway) connectBackend(client net.Conn, cw *proto.Writer, scene string, relay bool) (net.Conn, string, *proto.Reader, *proto.Writer, bool) {
	backend, addr, err := g.dialScene(scene)
	if err != nil {
		switch {
		case errors.Is(err, errUnknownScene):
			g.refuse(client, cw, "unknown scene: "+scene)
		case errors.Is(err, errDraining):
			g.refuse(client, cw, errDraining.Error())
		default:
			g.logf("cluster: routing %v to scene %q: %v", client.RemoteAddr(), scene, err)
			g.refuse(client, cw, "scene unavailable")
		}
		return nil, "", nil, nil, false
	}
	g.track(backend)
	br := proto.NewReader(backend)
	if !g.greet(backend, br, client, cw, addr, relay) {
		g.untrack(backend)
		backend.Close()
		return nil, "", nil, nil, false
	}
	g.st.Label(stats.Backends, addr).Add(stats.BackendRoutes, 1)
	return backend, addr, br, proto.NewWriter(backend), true
}

// greet reads the backend's next greeting. With relay its hello is
// re-encoded to the client (deterministic encoders: byte-identical);
// without it the hello is dropped — a mid-handshake re-route, where the
// client waits on the scene select's hello. A backend's error frame
// always reaches the client.
func (g *Gateway) greet(backend net.Conn, br *proto.Reader, client net.Conn, cw *proto.Writer, addr string, relay bool) bool {
	backend.SetReadDeadline(time.Now().Add(g.cfg.DialTimeout))
	defer backend.SetReadDeadline(time.Time{})
	h, err := readGreeting(br)
	var refused backendRefusal
	switch {
	case errors.As(err, &refused):
		g.refuse(client, cw, string(refused))
		return false
	case err != nil:
		g.logf("cluster: greeting from %s: %v", addr, err)
		g.refuse(client, cw, "scene unavailable")
		return false
	case !relay:
		return true
	}
	client.SetWriteDeadline(time.Now().Add(g.cfg.DialTimeout))
	defer client.SetWriteDeadline(time.Time{})
	return cw.WriteHello(h) == nil
}

// handle proxies one client connection.
func (g *Gateway) handle(client net.Conn) {
	defer func() {
		client.Close()
		g.untrack(client)
		g.wg.Done()
	}()
	cw := proto.NewWriter(client)
	cr := proto.NewReader(client)

	backend, addr, br, bw, ok := g.connectBackend(client, cw, g.DefaultScene(), true)
	if !ok {
		return
	}
	defer func() {
		g.untrack(backend)
		backend.Close()
	}()

	// Pre-session phase: parse client frames one at a time. Scene
	// selects may re-route the connection to another backend; the first
	// resume or request starts the session and drops to the splice. A
	// frame the gateway refuses ends the loop at its one exit below.
	for {
		tag, err := cr.ReadTag()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				g.logf("cluster: read from %v: %v", client.RemoteAddr(), err)
			}
			bw.WriteBye()
			return
		}
		var refusal string
		switch tag {
		case proto.TagScene:
			name, err := cr.ReadSceneSelect()
			if err != nil {
				refusal = proto.SanitizeWireError(err)
				break
			}
			replicas, draining := g.replicas(name)
			if replicas == nil {
				refusal = "unknown scene: " + name
				break
			}
			if draining {
				// Forwarding the select would bind a session on the
				// source mid-drain, one the drain never ships.
				refusal = errDraining.Error()
				break
			}
			if !slices.Contains(replicas, addr) {
				// The scene lives elsewhere: say goodbye to the current
				// backend (so it doesn't park a session for a connection
				// that never started one) and re-route. The new backend's
				// greeting is dropped — the client is waiting on the
				// scene-select's hello, relayed below.
				bw.WriteBye()
				g.untrack(backend)
				backend.Close()
				backend, addr, br, bw, ok = g.connectBackend(client, cw, name, false)
				if !ok {
					return
				}
			}
			backend.SetWriteDeadline(time.Now().Add(g.cfg.DialTimeout))
			if err := bw.WriteSceneSelect(name); err != nil {
				refusal = "scene unavailable"
				break
			}
			backend.SetWriteDeadline(time.Time{})
			if !g.greet(backend, br, client, cw, addr, true) {
				return
			}
			continue
		case proto.TagResume:
			res, err := cr.ReadResume()
			if err != nil {
				refusal = proto.SanitizeWireError(err)
				break
			}
			if bw.WriteResume(res) == nil {
				g.splice(client, cr, backend, br)
			}
			return
		case proto.TagRequest:
			req, err := cr.ReadRequest()
			if err != nil {
				refusal = proto.SanitizeWireError(err)
				break
			}
			if bw.WriteRequest(req) == nil {
				g.splice(client, cr, backend, br)
			}
			return
		case proto.TagBye:
			bw.WriteBye()
			return
		default:
			refusal = "unexpected message"
		}
		g.refuse(client, cw, refusal)
		bw.WriteBye()
		return
	}
}

// splice hands the connection over to raw byte copying in both
// directions. Any bytes the parsed phase read ahead into either bufio
// reader are flushed to the opposite side first, so nothing is lost in
// the handoff. The splice ends when either side closes; both sides are
// then closed, and a client holding a resume token re-dials the
// gateway.
func (g *Gateway) splice(client net.Conn, cr *proto.Reader, backend net.Conn, br *proto.Reader) {
	client.SetDeadline(time.Time{})
	backend.SetDeadline(time.Time{})
	if _, err := cr.WriteBufferedTo(backend); err != nil {
		return
	}
	if _, err := br.WriteBufferedTo(client); err != nil {
		return
	}
	done := make(chan struct{}, 1)
	go func() {
		io.Copy(backend, client)
		// Client went away (or Close): unblock the other direction.
		backend.Close()
		client.Close()
		done <- struct{}{}
	}()
	io.Copy(client, backend)
	backend.Close()
	client.Close()
	<-done
}
