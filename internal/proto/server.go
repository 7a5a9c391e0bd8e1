package proto

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/hotcache"
	"repro/internal/retrieval"
	"repro/internal/stats"
	"repro/internal/wavelet"
)

// Server serves the retrieval protocol over TCP (or any net.Listener).
// Each connection is one client session with its own delivered-set
// filtering, exactly like the in-process retrieval.Session.
//
// Scenes: the server fronts an engine.Registry. A connection lands on
// the default scene (announced in the hello) and may switch once to any
// registered scene with a scene-select frame — but only before its first
// request or resume, so a session's delivered-set never spans scenes.
// Each scene's session table (engine.Sessions) holds its lineages; a
// resuming client re-selects its scene first, then presents its token.
//
// Concurrency: every accepted connection runs on its own goroutine. The
// per-connection state (reader, writer, lineage) is goroutine-local;
// the shared retrieval servers, sources, and indexes are
// concurrent-read-safe (see the index.Index contract), the stats
// collector is wait-free, and a connection enters its scene's session
// table only to change its lineage's state: the greeting, a select, the
// first request, a resume and the end.
//
// Lifecycle hardening (see DESIGN.md "Fault tolerance"): per-connection
// idle and frame deadlines bound how long a silent or trickling peer can
// pin a goroutine, a max-sessions limit sheds excess connections with a
// sanitized "server busy" error, and Close drains in-flight handlers for
// a bounded interval before force-closing stragglers.
type Server struct {
	reg  *engine.Registry
	logf func(format string, args ...any)
	st   *stats.Stats

	maxSessions  int           // 0 = unlimited
	idleTimeout  time.Duration // max silence between frames; 0 = none
	frameTimeout time.Duration // per-frame read/write deadline; 0 = none
	drainTimeout time.Duration // graceful-close bound
	budgetCap    int64         // ceiling on one response's payload bytes; 0 = none

	mu     sync.Mutex
	closed bool
	lis    net.Listener
	conns  map[net.Conn]struct{} // for Close and maxSessions
	wg     sync.WaitGroup
}

// defaultDrainTimeout bounds graceful Close; override with
// SetDrainTimeout.
const defaultDrainTimeout = 5 * time.Second

// DefaultSceneName is the name NewServer registers its single scene
// under; clients that never send a scene-select get it implicitly.
const DefaultSceneName = "default"

// NewServer wraps a single retrieval server for network access — the
// pre-registry constructor, kept as the one-scene special case: the
// scene is registered under DefaultSceneName. levels is the dataset's
// subdivision depth, announced in the hello. logf may be nil.
// Session and error counts are recorded into stats.Default; SetStats
// overrides.
func NewServer(srv *retrieval.Server, levels int, logf func(string, ...any)) *Server {
	reg := engine.NewRegistry()
	if _, err := reg.AddScene(DefaultSceneName, srv, levels); err != nil {
		panic(err) // DefaultSceneName is statically valid
	}
	return NewMultiServer(reg, logf)
}

// NewMultiServer serves every scene in the registry. The registry must
// hold at least one scene before Serve (the default scene greets new
// connections).
func NewMultiServer(reg *engine.Registry, logf func(string, ...any)) *Server {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Server{
		reg:          reg,
		logf:         logf,
		st:           stats.Default,
		drainTimeout: defaultDrainTimeout,
		conns:        make(map[net.Conn]struct{}),
	}
}

// Registry returns the scene registry this server fronts.
func (s *Server) Registry() *engine.Registry { return s.reg }

// SetStats redirects the server's session/error counters (nil disables
// recording). Call before Serve.
func (s *Server) SetStats(st *stats.Stats) { s.st = st }

// SetLimits configures resource bounds: maxSessions concurrent
// connections (0 = unlimited; excess connections are shed with a
// "server busy" error), idle is the maximum silence between frames, and
// frame bounds each frame's body read and response write (0 disables
// either deadline). Call before Serve.
func (s *Server) SetLimits(maxSessions int, idle, frame time.Duration) {
	s.maxSessions = maxSessions
	s.idleTimeout = idle
	s.frameTimeout = frame
}

// SetBudgetCap ceilings the effective byte budget of every request: a
// client budget above the cap (or an "unlimited" budget of 0) is clamped
// down to it, bounding the response a single frame can demand. The
// coefficients the cap withholds are reported in Response.Dropped and
// stay undelivered, so a client that asks again receives them. 0
// disables the cap. Call before Serve.
func (s *Server) SetBudgetCap(maxBytes int64) {
	if maxBytes < 0 {
		maxBytes = 0
	}
	s.budgetCap = maxBytes
}

// SetResumeCache bounds every scene's parked lineages: at most
// capacity (0 disables resumption), each kept for at most ttl. Call
// before Serve.
func (s *Server) SetResumeCache(capacity int, ttl time.Duration) {
	s.reg.SetResumeCache(capacity, ttl)
}

// SetDrainTimeout bounds how long Close waits for in-flight handlers
// before force-closing their connections. Call before Serve.
func (s *Server) SetDrainTimeout(d time.Duration) { s.drainTimeout = d }

// Serve accepts connections until the listener closes. It returns nil
// after Close — including a Close that ran before Serve got here, in
// which case Serve closes the listener itself and accepts nothing.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	s.lis = lis
	closed := s.closed
	s.mu.Unlock()
	if closed {
		lis.Close()
		return nil
	}
	for {
		conn, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		if s.maxSessions > 0 && len(s.conns) >= s.maxSessions {
			s.mu.Unlock()
			go s.shed(conn)
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// shed refuses a connection over the session limit with a bounded-time,
// sanitized error so well-behaved clients can back off and retry.
func (s *Server) shed(conn net.Conn) {
	defer conn.Close()
	s.st.Add(stats.ProtoShed, 1)
	s.logf("proto: shedding %v at session limit %d", conn.RemoteAddr(), s.maxSessions)
	conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	NewWriter(conn).WriteError("server busy: session limit reached")
}

// Close stops the accept loop, wakes idle handlers, waits up to the
// drain timeout for in-flight frames to finish, then force-closes any
// stragglers. It is safe to call more than once.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	if s.lis != nil {
		s.lis.Close()
	}
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	// Waking blocked readers lets idle handlers exit immediately while a
	// handler mid-frame still finishes its write.
	now := time.Now()
	for _, c := range conns {
		c.SetReadDeadline(now)
	}
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return
	case <-time.After(s.drainTimeout):
	}
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	<-done
}

// SceneConns reports how many connections are bound to the named
// scene: its session table's live lineages.
func (s *Server) SceneConns(scene string) int {
	if sc, ok := s.reg.Get(scene); ok {
		return sc.Sessions.Live()
	}
	return 0
}

// SeverScene force-closes every connection bound to the named scene and
// returns once each handler has ended its lineage — parked (journaled
// when a journal is attached) if it had started, as for a vanished
// peer, else discarded — bounded by the drain timeout, which is an
// error. It reports how many started lineages it severed, the count the
// scene's parked set gains: the drain hook a cluster controller uses to
// quiesce a scene before shipping it to another backend.
func (s *Server) SeverScene(scene string) (int, error) {
	sc, ok := s.reg.Get(scene)
	if !ok {
		return 0, fmt.Errorf("proto: unknown scene %q", scene)
	}
	n, ok := sc.Sessions.Sever(s.drainTimeout)
	if !ok {
		return n, fmt.Errorf("proto: scene %q's severed connections did not end within %v", scene, s.drainTimeout)
	}
	return n, nil
}

// serverBufs holds the frame buffers and LastIDs arrays of connections
// that ended with a goodbye, for the next connection to start with them
// grown. The pool gives up what it holds across garbage collections,
// which bounds what finished connections keep.
var serverBufs sync.Pool // of *connBufs

type connBufs struct {
	frame []byte
	ids   []int64
}

// serverConn is one connection's serving state, owned by its handler
// goroutine. Its methods are the per-frame steps handle dispatches to.
type serverConn struct {
	s     *Server
	nc    net.Conn
	r     *Reader
	w     *Writer
	scene *engine.Scene
	token uint64
	// sess is the lineage served, live in scene's session table under
	// token. A resume swaps in a parked predecessor; on abnormal exit the
	// lineage is parked in the *current* scene's table under this
	// connection's token (the client resumes with the newest token it
	// completed a handshake for, after re-selecting the same scene).
	sess *engine.Lineage
	// started: a request or resume has started the lineage, so the
	// table holds it started and later requests skip the table.
	started bool
	// hotSub is the session's hot-region subscription (nil until it
	// first serves a hot frame). Each hot frame re-points it at that
	// frame's query, keeping the entry and its shared payload exempt
	// from LRU eviction while anyone watches it.
	hotSub *hotcache.Sub
	// frame is the buffer each response frame is assembled in — header,
	// records, trailer — and written from in one Write; reused every
	// frame. ids is the array bind gives a new session's LastIDs. Both
	// may come from serverBufs, and an orderly end hands them on.
	frame []byte
	ids   []int64
}

// handle serves one accepted connection: the accept bookkeeping, the
// greeting, then a loop that reads a frame's tag and dispatches it to
// the connection's step for that frame.
func (s *Server) handle(nc net.Conn) {
	defer func() {
		nc.Close()
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		s.wg.Done()
	}()
	s.st.Add(stats.ProtoSessionsOpened, 1)
	s.st.Add(stats.ProtoSessionsActive, 1)
	defer s.st.Add(stats.ProtoSessionsActive, -1)

	c := &serverConn{s: s, nc: nc, r: NewReader(nc), w: NewWriter(nc)}
	if b, ok := serverBufs.Get().(*connBufs); ok {
		c.frame, c.ids = b.frame, b.ids
	}
	scene := s.reg.Default()
	if scene == nil {
		// Neither counted nor logged: a gateway probes an empty drain
		// target every ProbeEvery, and the greeting is the answer.
		c.fail(false, nil, errors.New("no scenes registered"))
		return
	}
	c.token = newToken()
	orderly := false
	defer func() { c.end(orderly) }()
	if !c.bind(scene) {
		return
	}
	for {
		if s.idleTimeout > 0 {
			nc.SetReadDeadline(time.Now().Add(s.idleTimeout))
		}
		tag, err := c.r.ReadTag()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				c.fail(true, fmt.Errorf("read: %w", err), nil)
			}
			return
		}
		// The frame deadline bounds the body read and the reply write; the
		// next loop iteration resets it to the (longer) idle timeout.
		if s.frameTimeout > 0 {
			nc.SetReadDeadline(time.Now().Add(s.frameTimeout))
		}
		var ok bool
		switch tag {
		case TagScene:
			ok = c.selectScene()
		case TagResume:
			ok = c.resume()
		case TagRequest:
			ok = c.request()
		case TagBye:
			orderly = true
			return
		default:
			ok = c.fail(true, fmt.Errorf("unexpected tag %d", tag), errors.New("unexpected message"))
		}
		if !ok {
			return
		}
	}
}

// fail is the connection's one failure path. It counts the failure in
// proto.errors when counted, logs cause once (a nil cause logs
// nothing) and, when reply is non-nil, answers the peer with reply's
// sanitized text as an error frame under the write deadline. It
// reports false, so a step ends its connection with `return c.fail(…)`.
func (c *serverConn) fail(counted bool, cause, reply error) bool {
	if counted {
		c.s.st.Add(stats.ProtoErrors, 1)
	}
	if cause != nil {
		c.s.logf("proto: %v: %v", c.nc.RemoteAddr(), cause)
	}
	if reply != nil {
		c.s.setWriteDeadline(c.nc)
		if err := c.w.WriteError(SanitizeWireError(reply)); err != nil {
			c.s.logf("proto: error reply to %v failed: %v", c.nc.RemoteAddr(), err)
		}
	}
	return false
}

// end releases the hot subscription and ends the lineage in its
// scene's table: a goodbye releases it (Sessions.Bye), and the frame
// buffer and LastIDs array go on to the next connection; any other end
// may leave a lineage to resume (Sessions.Drop), so it hands on
// nothing.
func (c *serverConn) end(orderly bool) {
	if c.hotSub != nil {
		c.hotSub.Close()
	}
	if !orderly {
		c.scene.Sessions.Drop(c.token)
		return
	}
	ids := c.sess.LastIDs[:0]
	c.scene.Sessions.Bye(c.token)
	serverBufs.Put(&connBufs{frame: c.frame[:0], ids: ids})
}

// bind greets the connection's lineage into scene's table, fresh, and
// greets the peer with the scene's hello under the connection's token:
// the greeting, and the answer to a scene select.
func (c *serverConn) bind(scene *engine.Scene) bool {
	if c.scene != nil {
		// A scene select ends the greeting's lineage, which never served
		// a frame; its session goes back to the pool of the scene it was
		// opened on.
		c.scene.Sessions.Bye(c.token)
	}
	c.scene = scene
	c.sess = scene.Sessions.Greet(c.token, c.nc, c.ids)
	if c.sess.Session.Reused() {
		c.s.st.Add(stats.ProtoSessionsReused, 1)
	}
	if c.hotSub != nil {
		// A subscription is bound to one scene's cache.
		c.hotSub.Close()
		c.hotSub = nil
	}
	src := scene.Source
	c.s.setWriteDeadline(c.nc)
	err := c.w.WriteHello(Hello{
		Version:   Version,
		Objects:   int32(src.NumObjects()),
		Levels:    int32(scene.Levels),
		BaseVerts: int32(src.BaseVerts()),
		Space:     src.Bounds().XY(),
		Token:     c.token,
		Scene:     scene.Name,
	})
	if err != nil {
		return c.fail(true, fmt.Errorf("hello: %w", err), nil)
	}
	return true
}

// selectScene serves a scene select. It is refused once the session
// has started: switching then would graft one scene's delivered-set
// onto another's id space.
func (c *serverConn) selectScene() bool {
	name, err := c.r.ReadSceneSelect()
	if err != nil {
		return c.fail(true, fmt.Errorf("bad scene select: %w", err), err)
	}
	if c.started {
		return c.fail(true, fmt.Errorf("scene select %q after session start", name), errors.New("scene select after session start"))
	}
	next, ok := c.s.reg.Get(name)
	if !ok {
		err := errors.New("unknown scene: " + name)
		return c.fail(true, err, err)
	}
	return c.bind(next)
}

// resume serves a resume: the connection adopts the lineage its token
// names (Sessions.Resume: parked, or live on a connection the server has
// not yet seen die, which is severed first), or the client is told to
// re-plan.
func (c *serverConn) resume() bool {
	res, err := c.r.ReadResume()
	if err != nil {
		return c.fail(true, fmt.Errorf("bad resume: %w", err), nil)
	}
	wait := c.s.frameTimeout
	if wait <= 0 {
		wait = c.s.drainTimeout
	}
	lin, ok := c.scene.Sessions.Resume(c.token, res.Token, res.AppliedSeq, wait)
	c.s.setWriteDeadline(c.nc)
	if !ok {
		c.s.st.Add(stats.ProtoResumeMisses, 1)
		if err := c.w.WriteResumeFail("no resumable session"); err != nil {
			return c.fail(false, fmt.Errorf("resume reply: %w", err), nil)
		}
		return true
	}
	c.sess, c.started = lin, true
	c.s.st.Add(stats.ProtoResumeHits, 1)
	if lin.Restored {
		// This lineage crossed a server restart via the recovered
		// journal, or a drain — the crash-safety win worth its own
		// counter.
		c.s.st.Add(stats.ProtoResumesRestored, 1)
		lin.Restored = false
	}
	if err := c.w.WriteResumeOK(ResumeOK{Seq: lin.Seq, Delivered: int64(lin.Session.Delivered())}); err != nil {
		return c.fail(false, fmt.Errorf("resume reply: %w", err), nil)
	}
	return true
}

// request serves one request frame in four steps: decode, retrieve,
// reply and write.
func (c *serverConn) request() bool {
	req, err := c.r.ReadRequest()
	if err != nil {
		return c.fail(true, fmt.Errorf("bad request: %w", err), err)
	}
	if !c.started {
		c.started = true
		c.scene.Sessions.Start(c.token)
	}
	resp := c.retrieve(req)
	c.reply(&resp)
	// resp.IDs aliases the session's scratch (overwritten by the next
	// frame); the resume lineage keeps its own copy — taken after the
	// reply step so it records what was actually sent.
	c.sess.LastIDs = append(c.sess.LastIDs[:0], resp.IDs...)
	c.frame, err = finishResponseFrame(c.frame, resp.IO, c.sess.Seq, resp.Dropped)
	if err == nil {
		c.s.setWriteDeadline(c.nc)
		err = c.w.writeFrame(c.frame)
	}
	if err != nil {
		return c.fail(true, fmt.Errorf("response: %w", err), nil)
	}
	return true
}

// retrieve runs the frame's search, merge and budget cut through the
// session, under the server's cap on over-large (and "unlimited")
// client budgets.
func (c *serverConn) retrieve(req Request) retrieval.Response {
	maxBytes := req.MaxBytes
	if limit := c.s.budgetCap; limit > 0 && (maxBytes == 0 || maxBytes > limit) {
		maxBytes = limit
	}
	c.sess.Seq++
	return c.sess.Session.RetrieveBudget(req.Subs, maxBytes)
}

// reply assembles the frame's records in c.frame: a hot frame
// subscribes the session to its region and replays the entry's encoded
// bytes when the cache holds them; any other frame is fetched and
// encoded, and a complete encoding of a hot frame is handed to the
// cache.
func (c *serverConn) reply(resp *retrieval.Response) {
	hot := c.scene.Server.HotCache()
	if hot == nil || !resp.Hot.Valid {
		c.encode(resp)
		return
	}
	// Multicast registration: this session is watching the hot region
	// it just retrieved; keep the region's entry resident until the
	// session moves on or disconnects.
	if c.hotSub == nil {
		c.hotSub = hot.Subscribe()
	}
	c.hotSub.Set(resp.Hot.Query)
	if p, ok := hot.Payload(resp.Hot.Query, 0); ok && len(p) == len(resp.IDs)*wavelet.WireBytes {
		c.frame = append(beginResponseFrame(c.frame, len(resp.IDs)), p...)
		return
	}
	if c.encode(resp) == 0 {
		hot.SetPayload(resp.Hot.Query, 0, c.frame[respHeadBytes:])
	}
}

// encode appends the response's wire records to a fresh frame, read
// through the session's pin set (Pins.AppendRecords), which keeps a
// paged scene's pages resident until the bytes are in the buffer. A
// coefficient whose page is unreadable is withheld: cut from the
// response and forgotten from the delivered set, so the session
// re-retrieves it once the page heals (Dropped semantics — degrade the
// frame, never the process).
func (c *serverConn) encode(resp *retrieval.Response) (withheld int) {
	// The frame grows in a local and is stored back once: an append to
	// the heap field would cost a write barrier per record.
	frame := beginResponseFrame(c.frame, len(resp.IDs))
	pins := c.sess.Session.Pins()
	ids := resp.IDs
	var withheldIDs []int64
	kept := 0 // ids[:kept] are the ids encoded so far
	for i := 0; i < len(ids); {
		var n int
		var err error
		frame, n, err = pins.AppendRecords(frame, ids[i:])
		if kept != i {
			copy(ids[kept:], ids[i:i+n])
		}
		kept += n
		i += n
		if err != nil {
			withheldIDs = append(withheldIDs, ids[i])
			i++
		}
	}
	c.frame = frame
	pins.Release()
	resp.IDs = ids[:kept]
	if len(withheldIDs) > 0 {
		c.sess.Session.Forget(withheldIDs)
		resp.Dropped += int64(len(withheldIDs))
		c.s.st.Add(stats.ProtoCoeffsWithheld, int64(len(withheldIDs)))
	}
	return len(withheldIDs)
}

func (s *Server) setWriteDeadline(conn net.Conn) {
	if s.frameTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(s.frameTimeout))
	}
}

// ListenAndServe binds addr and serves until Close. It logs the bound
// address through logf (useful with ":0").
func (s *Server) ListenAndServe(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.logf("proto: listening on %v", lis.Addr())
	return s.Serve(lis)
}
