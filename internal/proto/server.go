package proto

import (
	"errors"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/hotcache"
	"repro/internal/retrieval"
	"repro/internal/stats"
)

// Server serves the retrieval protocol over TCP (or any net.Listener).
// Each connection is one client session with its own delivered-set
// filtering, exactly like the in-process retrieval.Session.
//
// Scenes: the server fronts an engine.Registry. A connection lands on
// the default scene (announced in the hello) and may switch once to any
// registered scene with a scene-select frame — but only before its first
// request or resume, so a session's delivered-set never spans scenes.
// Each scene parks its interrupted sessions in its own resume cache; a
// resuming client re-selects its scene first, then presents its token.
//
// Concurrency: every accepted connection runs on its own goroutine. The
// per-connection state (reader, writer, session) is goroutine-local;
// the shared retrieval servers, sources, and indexes are
// concurrent-read-safe (see the index.Index contract), the stats
// collector is wait-free, and the resume caches are mutex-guarded off
// the request hot path.
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
	conns  map[net.Conn]*connInfo
	wg     sync.WaitGroup
}

// connInfo is the server's bookkeeping for one live connection: the
// scene the session is currently bound to, so a cluster drain can sever
// exactly the connections of the scene being relocated, and whether the
// session has started (served a request or resume) — only those carry
// state worth parking when severed.
type connInfo struct {
	scene   string
	started bool
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
		conns:        make(map[net.Conn]*connInfo),
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

// SetResumeCache bounds every scene's closed-session cache: capacity
// entries (0 disables resumption) kept for at most ttl. Call before
// Serve.
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
		s.conns[conn] = &connInfo{}
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

// setConnScene records which scene a connection is bound to (for
// SeverScene/SceneConns). A connection already gone from the map (Close
// racing the handler) is ignored.
func (s *Server) setConnScene(conn net.Conn, scene string) {
	s.mu.Lock()
	if ci, ok := s.conns[conn]; ok {
		ci.scene = scene
	}
	s.mu.Unlock()
}

// setConnStarted marks a connection's session as started once it serves
// its first request or resume.
func (s *Server) setConnStarted(conn net.Conn) {
	s.mu.Lock()
	if ci, ok := s.conns[conn]; ok {
		ci.started = true
	}
	s.mu.Unlock()
}

// SceneConns reports how many live connections are bound to the named
// scene.
func (s *Server) SceneConns(scene string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, ci := range s.conns {
		if ci.scene == scene {
			n++
		}
	}
	return n
}

// SeverScene force-closes every connection bound to the named scene and
// returns how many live sessions it severed. Each severed handler parks
// its session in the scene's resume cache (journaled when one is
// attached) exactly as it would for a vanished peer — the drain hook a
// cluster controller uses to quiesce a scene before shipping it to
// another backend. Connections whose session never started (a
// handshake-only peer caught mid-greeting) are closed too but not
// counted: they park nothing, so the count matches what the resume
// cache gains.
func (s *Server) SeverScene(scene string) int {
	s.mu.Lock()
	victims := make([]net.Conn, 0, len(s.conns))
	n := 0
	for c, ci := range s.conns {
		if ci.scene == scene {
			victims = append(victims, c)
			if ci.started {
				n++
			}
		}
	}
	s.mu.Unlock()
	for _, c := range victims {
		c.Close()
	}
	return n
}

// sendHello announces a scene's schema under the connection's token.
func (s *Server) sendHello(conn net.Conn, w *Writer, scene *engine.Scene, token uint64) error {
	src := scene.Source
	s.setWriteDeadline(conn)
	return w.WriteHello(Hello{
		Version:   Version,
		Objects:   int32(src.NumObjects()),
		Levels:    int32(scene.Levels),
		BaseVerts: int32(src.BaseVerts()),
		Space:     src.Bounds().XY(),
		Token:     token,
		Scene:     scene.Name,
	})
}

func (s *Server) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
	}()
	s.st.Add(stats.ProtoSessionsOpened, 1)
	s.st.Add(stats.ProtoSessionsActive, 1)
	defer s.st.Add(stats.ProtoSessionsActive, -1)
	w := NewWriter(conn)
	r := NewReader(conn)

	scene := s.reg.Default()
	if scene == nil {
		s.setWriteDeadline(conn)
		if err := w.WriteError("no scenes registered"); err != nil {
			s.logf("proto: error reply to %v failed: %v", conn.RemoteAddr(), err)
		}
		return
	}
	s.setConnScene(conn, scene.Name)
	token := newToken()
	if err := s.sendHello(conn, w, scene, token); err != nil {
		s.st.Add(stats.ProtoErrors, 1)
		s.logf("proto: hello to %v failed: %v", conn.RemoteAddr(), err)
		return
	}

	// The session lineage this connection serves. A successful resume
	// swaps in a cached predecessor; on abnormal exit the lineage is
	// parked in the *current* scene's cache under this connection's token
	// (the client always resumes with the newest token it completed a
	// handshake for, after re-selecting the same scene).
	sess := &engine.ResumeEntry{Session: retrieval.NewSession(scene.Server)}
	started := false // a request or resume has bound the session to its scene
	orderly := false
	// Per-connection wire scratch: response payloads are serialized into
	// this buffer (reused every frame) unless the scene's hot cache
	// already holds the encoded bytes.
	var payloadBuf []byte
	// hotSub is this session's hot-region subscription (nil until the
	// session first serves a frame provably equal to a cache entry). It
	// follows the viewer: each hot frame re-points it at that frame's
	// bucket, keeping the region's entry — and its shared serialized
	// payload — exempt from LRU eviction while anyone watches it.
	var hotSub *hotcache.Sub
	defer func() {
		if hotSub != nil {
			hotSub.Close()
		}
	}()
	defer func() {
		// Park only sessions that actually started: an interrupted
		// connection that never served a request or resume has no
		// delivered-set worth restoring, and parking it would let
		// transient handshake-only peers (health probes, port scanners)
		// pollute the resume cache and session journal.
		if !orderly && started {
			scene.Resume.Put(token, sess)
		}
	}()

	for {
		if s.idleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.idleTimeout))
		}
		tag, err := r.ReadTag()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				s.st.Add(stats.ProtoErrors, 1)
				s.logf("proto: read from %v failed: %v", conn.RemoteAddr(), err)
			}
			return
		}
		// The frame deadline bounds the body read and the reply write; the
		// next loop iteration resets it to the (longer) idle timeout.
		if s.frameTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.frameTimeout))
		}
		switch tag {
		case TagScene:
			name, err := r.ReadSceneSelect()
			if err != nil {
				s.st.Add(stats.ProtoErrors, 1)
				s.logf("proto: bad scene select from %v: %v", conn.RemoteAddr(), err)
				s.setWriteDeadline(conn)
				if werr := w.WriteError(SanitizeWireError(err)); werr != nil {
					s.logf("proto: error reply to %v failed: %v", conn.RemoteAddr(), werr)
				}
				return
			}
			if started {
				// Switching scenes would graft one scene's delivered-set onto
				// another's id space; refuse and drop the connection.
				s.st.Add(stats.ProtoErrors, 1)
				s.logf("proto: %v selected scene %q after session start", conn.RemoteAddr(), name)
				s.setWriteDeadline(conn)
				if werr := w.WriteError("scene select after session start"); werr != nil {
					s.logf("proto: error reply to %v failed: %v", conn.RemoteAddr(), werr)
				}
				return
			}
			next, ok := s.reg.Get(name)
			if !ok {
				s.st.Add(stats.ProtoErrors, 1)
				s.setWriteDeadline(conn)
				if werr := w.WriteError("unknown scene: " + name); werr != nil {
					s.logf("proto: error reply to %v failed: %v", conn.RemoteAddr(), werr)
				}
				return
			}
			scene = next
			s.setConnScene(conn, scene.Name)
			if hotSub != nil {
				// A subscription is bound to one scene's cache.
				hotSub.Close()
				hotSub = nil
			}
			sess = &engine.ResumeEntry{Session: retrieval.NewSession(scene.Server)}
			if err := s.sendHello(conn, w, scene, token); err != nil {
				s.st.Add(stats.ProtoErrors, 1)
				s.logf("proto: hello to %v failed: %v", conn.RemoteAddr(), err)
				return
			}
		case TagResume:
			res, err := r.ReadResume()
			if err != nil {
				s.st.Add(stats.ProtoErrors, 1)
				s.logf("proto: bad resume from %v: %v", conn.RemoteAddr(), err)
				return
			}
			s.setWriteDeadline(conn)
			prev, ok := scene.Resume.Take(res.Token)
			if ok {
				// Roll back an un-applied final response: the server counted
				// those coefficients as delivered, but the client never saw
				// them; forgetting them lets the retry re-send.
				switch res.AppliedSeq {
				case prev.Seq:
					// In sync; nothing to roll back.
				case prev.Seq - 1:
					prev.Session.Forget(prev.LastIDs)
					prev.Seq--
				default:
					ok = false
				}
			}
			if !ok {
				s.st.Add(stats.ProtoResumeMisses, 1)
				if err := w.WriteResumeFail("no resumable session"); err != nil {
					s.logf("proto: resume reply to %v failed: %v", conn.RemoteAddr(), err)
					return
				}
				continue
			}
			prev.LastIDs = prev.LastIDs[:0]
			sess = prev
			if !started {
				started = true
				s.setConnStarted(conn)
			}
			s.st.Add(stats.ProtoResumeHits, 1)
			if prev.Restored {
				// This session crossed a server restart via the recovered
				// journal — the crash-safety win worth its own counter.
				s.st.Add(stats.ProtoResumesRestored, 1)
				prev.Restored = false
			}
			if err := w.WriteResumeOK(ResumeOK{Seq: sess.Seq, Delivered: int64(sess.Session.Delivered())}); err != nil {
				s.logf("proto: resume reply to %v failed: %v", conn.RemoteAddr(), err)
				return
			}
		case TagRequest:
			req, err := r.ReadRequest()
			if err != nil {
				s.st.Add(stats.ProtoErrors, 1)
				s.logf("proto: bad request from %v: %v", conn.RemoteAddr(), err)
				s.setWriteDeadline(conn)
				if werr := w.WriteError(SanitizeWireError(err)); werr != nil {
					s.logf("proto: error reply to %v failed: %v", conn.RemoteAddr(), werr)
				}
				return
			}
			if !started {
				started = true
				s.setConnStarted(conn)
			}
			// The server-side cap clamps over-large (and "unlimited")
			// client budgets; the truncation itself is the deterministic
			// prefix cut of retrieval.ExecuteBudget.
			maxBytes := req.MaxBytes
			if s.budgetCap > 0 && (maxBytes == 0 || maxBytes > s.budgetCap) {
				maxBytes = s.budgetCap
			}
			resp := sess.Session.RetrieveBudget(req.Subs, maxBytes)
			sess.Seq++
			hot := scene.Server.HotCache()
			var payload []byte
			if hot != nil && resp.Hot.Valid {
				// Multicast registration: this session is watching the hot
				// region it just retrieved; keep the region's entry resident
				// until the session moves on or disconnects.
				if hotSub == nil {
					hotSub = hot.Subscribe()
				}
				hotSub.Set(resp.Hot.Query)
				if p, ok := hot.Payload(resp.Hot.Query, resp.Hot.Epoch); ok && len(p) == len(resp.IDs)*wireCoeffBytes {
					payload = p
				}
			}
			if payload == nil {
				// Sized once for the frame: a connection's first wholesale
				// response would otherwise regrow the buffer a dozen times.
				payloadBuf = slices.Grow(payloadBuf[:0], len(resp.IDs)*wireCoeffBytes)
				// The session's pin set keeps a paged scene's pages resident
				// (and the pointers stable) until the frame's bytes are in
				// payloadBuf.
				pins := sess.Session.Pins()
				// Coefficients whose backing page is unreadable at encode
				// time are withheld: compacted out of the response and
				// forgotten from the delivered set, so the session
				// re-retrieves them once the page heals (Dropped semantics —
				// degrade the frame, never the process).
				var withheldIDs []int64
				kept := resp.IDs[:0]
				for _, id := range resp.IDs {
					c, cerr := pins.Coeff(id)
					if cerr != nil {
						withheldIDs = append(withheldIDs, id)
						continue
					}
					wc := Coeff{
						Object: c.Object,
						Vertex: c.Vertex,
						Delta:  c.Delta,
						Pos:    [3]float32{float32(c.Pos.X), float32(c.Pos.Y), float32(c.Pos.Z)},
						Value:  float32(c.Value),
					}
					payloadBuf = appendCoeff(payloadBuf, &wc)
					kept = append(kept, id)
				}
				pins.Release()
				resp.IDs = kept
				if len(withheldIDs) > 0 {
					sess.Session.Forget(withheldIDs)
					resp.Dropped += int64(len(withheldIDs))
					s.st.Add(stats.ProtoCoeffsWithheld, int64(len(withheldIDs)))
				}
				payload = payloadBuf
				if hot != nil && resp.Hot.Valid && len(withheldIDs) == 0 {
					hot.SetPayload(resp.Hot.Query, resp.Hot.Epoch, payload)
				}
			}
			// resp.IDs aliases the session's scratch (overwritten by the
			// next frame); the resume lineage keeps its own copy — taken
			// after the encode pass so it records what was actually sent.
			sess.LastIDs = append(sess.LastIDs[:0], resp.IDs...)
			s.setWriteDeadline(conn)
			if err := w.writeResponsePayload(len(resp.IDs), resp.IO, sess.Seq, resp.Dropped, payload); err != nil {
				s.st.Add(stats.ProtoErrors, 1)
				s.logf("proto: response to %v failed: %v", conn.RemoteAddr(), err)
				return
			}
		case TagBye:
			orderly = true
			return
		default:
			s.st.Add(stats.ProtoErrors, 1)
			s.logf("proto: unexpected tag %d from %v", tag, conn.RemoteAddr())
			s.setWriteDeadline(conn)
			if werr := w.WriteError("unexpected message"); werr != nil {
				s.logf("proto: error reply to %v failed: %v", conn.RemoteAddr(), werr)
			}
			return
		}
	}
}

func (s *Server) setWriteDeadline(conn net.Conn) {
	if s.frameTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(s.frameTimeout))
	}
}

// ResumeCacheLen reports the number of parked sessions across all scenes
// (observability and tests).
func (s *Server) ResumeCacheLen() int { return s.reg.ResumeLen() }

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
