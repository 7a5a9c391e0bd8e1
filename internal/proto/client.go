package proto

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"repro/internal/abr"
	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/retrieval"
	"repro/internal/wavelet"
)

// Client is the networked mobile client: it plans incremental sub-queries
// with Algorithm 1, ships them over a connection, and feeds the streamed
// coefficients into per-object reconstructors so the caller can render
// (or measure) the meshes it has received so far.
//
// Retry safety. The client's local state (planner, reconstructors,
// applied-sequence counter) only advances after a response is fully
// received, checksum-verified, and applied, so every Frame error leaves
// the client in a well-defined place:
//
//   - Request write failed: the server may or may not have seen the
//     request. The connection is dead, but the planner was not advanced.
//   - Response read failed (drop, timeout, ErrChecksum): the server has
//     processed the request and counted its coefficients as delivered,
//     but the client never applied them. The delivered-sets have
//     diverged by exactly one frame.
//
// Both states are safe to retry from after Reconnect: a successful
// resume rolls the server back to the last applied frame (closing the
// one-frame divergence), and a failed resume resets the planner so the
// next frame is a non-incremental window query that re-covers the gap.
// Re-delivered coefficients are harmless — Reconstructor.Apply is
// idempotent. The connection itself is never reusable after an error;
// only Reconnect (or Close) is valid then. ResilientClient packages this
// policy.
type Client struct {
	conn  net.Conn
	r     *Reader
	w     *Writer
	hello Hello
	scene string // requested scene; "" accepts the server's default

	planner  *retrieval.Client
	mapSpeed retrieval.MapSpeedToResolution
	// schema is the subdivision schema the hello announces, shared by
	// every reconstructor in recons.
	schema *wavelet.Schema
	recons map[int32]*wavelet.Reconstructor
	// resp and records are the frame-decode scratch: the header fields
	// and the records section of the last response, consumed before the
	// next read.
	resp    Response
	records []byte
	// connBytes counts the record bytes applied over the current
	// connection: with a failed frame's partial records, what the
	// connection carried before it failed.
	connBytes int64

	// Session-resume lineage: the newest server-assigned token and the
	// sequence number of the last response applied on that lineage.
	token      uint64
	appliedSeq int64

	// Totals over the client's lifetime (across reconnects; re-delivered
	// coefficients after a failed resume count again).
	BytesReceived int64
	Coefficients  int64
	ServerIO      int64
}

// Dial connects to a protocol server and performs the handshake against
// the server's default scene.
func Dial(addr string, mapSpeed retrieval.MapSpeedToResolution) (*Client, error) {
	return DialScene(addr, "", mapSpeed)
}

// DialScene connects to a protocol server and binds the session to the
// named scene ("" accepts the default). Reconnect re-selects the same
// scene before resuming, so the lineage never crosses scenes.
func DialScene(addr, scene string, mapSpeed retrieval.MapSpeedToResolution) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewSceneClient(conn, scene, mapSpeed)
}

// NewClient performs the handshake over an established connection,
// accepting the server's default scene.
func NewClient(conn net.Conn, mapSpeed retrieval.MapSpeedToResolution) (*Client, error) {
	return NewSceneClient(conn, "", mapSpeed)
}

// NewSceneClient performs the handshake over an established connection
// and binds the session to the named scene ("" accepts the default).
func NewSceneClient(conn net.Conn, scene string, mapSpeed retrieval.MapSpeedToResolution) (*Client, error) {
	if mapSpeed == nil {
		mapSpeed = retrieval.Identity
	}
	c := &Client{
		scene:    scene,
		planner:  retrieval.NewClient(nil, mapSpeed),
		mapSpeed: mapSpeed,
		recons:   make(map[int32]*wavelet.Reconstructor),
	}
	if b, ok := recordBufs.Get().(*[]byte); ok {
		c.records = *b
	}
	if _, err := c.attach(conn, false); err != nil {
		return nil, err
	}
	return c, nil
}

// Reconnect abandons the current connection and re-establishes the
// session on a fresh one: it performs the hello handshake and then asks
// the server to resume this client's previous session. resumed reports
// whether the server still held the session; if not (cache miss or
// expiry), the planner is reset so the next frame re-covers its whole
// window — correct, just not incremental. On error the new connection is
// closed and the client state is unchanged (call Reconnect again with
// another connection).
func (c *Client) Reconnect(conn net.Conn) (resumed bool, err error) {
	return c.attach(conn, true)
}

// attach performs the handshake (scene selection, then resume
// negotiation — in that order, so a resume token is always presented to
// the scene that minted the lineage) on conn and, on success, makes it
// the client's connection.
func (c *Client) attach(conn net.Conn, resume bool) (resumed bool, err error) {
	r, w := NewReader(conn), NewWriter(conn)
	hello, err := c.readHello(conn, r)
	if err != nil {
		return false, err
	}
	if c.scene != "" && hello.Scene != c.scene {
		if err := w.WriteSceneSelect(c.scene); err != nil {
			conn.Close()
			return false, err
		}
		if hello, err = c.readHello(conn, r); err != nil {
			return false, err
		}
		if hello.Scene != c.scene {
			conn.Close()
			return false, fmt.Errorf("proto: server bound scene %q, requested %q", hello.Scene, c.scene)
		}
	}
	schema, err := c.schemaFor(hello)
	if err != nil {
		conn.Close()
		return false, err
	}
	if resume && c.token != 0 {
		if err := w.WriteResume(Resume{Token: c.token, AppliedSeq: c.appliedSeq}); err != nil {
			conn.Close()
			return false, err
		}
		tag, err := r.ReadTag()
		if err != nil {
			conn.Close()
			return false, err
		}
		switch tag {
		case TagResumeOK:
			ok, err := r.ReadResumeOK()
			if err != nil {
				conn.Close()
				return false, err
			}
			if ok.Seq != c.appliedSeq {
				conn.Close()
				return false, fmt.Errorf("proto: resume desync: server at seq %d, client applied %d",
					ok.Seq, c.appliedSeq)
			}
			resumed = true
		case TagResumeFail:
			if _, err := r.ReadResumeFail(); err != nil {
				conn.Close()
				return false, err
			}
			c.resetLineage()
		default:
			conn.Close()
			return false, fmt.Errorf("proto: unexpected resume reply tag %d", tag)
		}
	} else if resume {
		c.resetLineage()
	}
	if c.conn != nil && c.conn != conn {
		c.conn.Close()
	}
	c.conn, c.r, c.w, c.hello, c.token = conn, r, w, hello, hello.Token
	c.schema = schema
	c.connBytes = 0
	return resumed, nil
}

// schemaFor returns the schema the reconstructors of hello's scene
// share: the client's own when the level count is unchanged, else a new
// one. Every generated object subdivides an octahedron, so a hello the
// client cannot reconstruct — a level count the schema cannot hold, or a
// non-empty scene whose base mesh is not an octahedron — is refused.
func (c *Client) schemaFor(h Hello) (*wavelet.Schema, error) {
	schema := c.schema
	if schema == nil || schema.Levels() != int(h.Levels) {
		var err error
		if schema, err = wavelet.NewSchema(mesh.Octahedron(), int(h.Levels)); err != nil {
			return nil, fmt.Errorf("proto: hello: %w", err)
		}
	}
	if h.Objects > 0 && int(h.BaseVerts) != schema.BaseVerts() {
		return nil, fmt.Errorf("proto: hello: base mesh of %d vertices, the client reconstructs %d", h.BaseVerts, schema.BaseVerts())
	}
	return schema, nil
}

// readHello consumes one hello frame (or a server error refusing the
// connection), closing conn on failure.
func (c *Client) readHello(conn net.Conn, r *Reader) (Hello, error) {
	tag, err := r.ReadTag()
	if err != nil {
		conn.Close()
		return Hello{}, fmt.Errorf("proto: handshake read: %w", err)
	}
	if tag == TagError {
		msg, rerr := r.ReadError()
		conn.Close()
		if rerr != nil {
			return Hello{}, fmt.Errorf("proto: server refused connection")
		}
		return Hello{}, fmt.Errorf("proto: server refused connection: %s", msg)
	}
	if tag != TagHello {
		conn.Close()
		return Hello{}, fmt.Errorf("proto: expected hello, got tag %d", tag)
	}
	hello, err := r.ReadHello()
	if err != nil {
		conn.Close()
		return Hello{}, err
	}
	return hello, nil
}

// resetLineage abandons the resumable session: the next frame is planned
// from scratch (non-incremental), which re-covers anything lost in the
// gap; re-deliveries are filtered by the fresh server session and
// re-applied idempotently here.
func (c *Client) resetLineage() {
	c.planner.Reset()
	c.appliedSeq = 0
}

// Hello returns the dataset schema announced by the server.
func (c *Client) Hello() Hello { return c.hello }

// Scene returns the scene the session is bound to (the server's answer,
// so a default-accepting client learns the actual name).
func (c *Client) Scene() string { return c.hello.Scene }

// Space returns the navigable data space.
func (c *Client) Space() geom.Rect2 { return c.hello.Space }

// AppliedSeq returns the sequence number of the last fully applied
// response on the current session lineage.
func (c *Client) AppliedSeq() int64 { return c.appliedSeq }

// Frame issues one continuous-query frame: Algorithm 1 planning, one
// round-trip, reconstruction state update. It returns the number of new
// coefficients received. On error the connection must be abandoned; see
// the type comment for which states are safe to retry from.
//
// The planner advances only past a frame the server answered in full.
// When it withheld coefficients (a server byte cap, an unreadable page)
// the next frame is planned against the last fully delivered one, so it
// asks for the withheld coefficients again instead of leaving a
// permanent hole.
func (c *Client) Frame(q geom.Rect2, speed float64) (int, error) {
	n, _, err := c.frame(q, speed, 0)
	return n, err
}

// frame is Frame under a byte budget (0 = unlimited), also returning the
// count the server withheld. Re-sending the same frame after a withheld
// count returns the next prefix: the planner has not advanced, and the
// server's delivered set filters what already arrived.
func (c *Client) frame(q geom.Rect2, speed float64, maxBytes int64) (int, int64, error) {
	n, dropped, err := c.exchange(Request{Subs: c.planner.PlanFrame(q, speed), MaxBytes: maxBytes})
	if err == nil && dropped == 0 {
		c.planner.Advance(q, speed)
	}
	return n, dropped, err
}

// FrameBudget issues one budgeted query frame: the viewport-utility
// plan of internal/abr (rings concentric regions around the frame
// center × resolution bands, ordered by screen-space contribution)
// shipped with a byte budget, answered by a deterministically truncated
// response. It returns the number of coefficients received and how many
// the server withheld.
//
// Budgeted frames do not use Algorithm 1's frame-to-frame
// incrementality — the plan re-covers the whole window every frame and
// the server's delivered-set filters repeats, which stays exact under
// truncation (withheld coefficients are never marked delivered, so they
// arrive in later frames as budget allows). The planner's overlap
// history is reset, so a subsequent plain Frame re-covers its window
// rather than trusting a truncated frame's coverage.
func (c *Client) FrameBudget(q geom.Rect2, speed float64, maxBytes int64, rings int) (n int, droppedCoeffs int64, err error) {
	c.planner.Reset()
	return c.exchange(Request{Subs: abr.PlanViewport(q, q.Center(), c.mapSpeed(speed), rings), MaxBytes: maxBytes})
}

// exchange ships one request and applies its response: the records go
// into the reconstructors, the sequence number and lifetime totals
// advance. It returns the records received and the count withheld. On
// error, c.records holds the bytes of the records section read before
// the failure.
func (c *Client) exchange(req Request) (int, int64, error) {
	c.records = c.records[:0]
	if err := c.w.WriteRequest(req); err != nil {
		return 0, 0, err
	}
	tag, err := c.r.ReadTag()
	if err != nil {
		return 0, 0, err
	}
	if tag == TagError {
		msg, err := c.r.ReadError()
		if err != nil {
			return 0, 0, err
		}
		return 0, 0, fmt.Errorf("proto: server error: %s", msg)
	}
	if tag != TagResponse {
		return 0, 0, fmt.Errorf("proto: unexpected tag %d", tag)
	}
	resp := &c.resp
	if c.records, err = c.r.readResponse(resp, c.records); err != nil {
		return 0, 0, err
	}
	if resp.Seq != c.appliedSeq+1 {
		return 0, 0, fmt.Errorf("proto: response seq %d, expected %d", resp.Seq, c.appliedSeq+1)
	}
	c.apply(c.records)
	n := len(c.records) / wavelet.WireBytes
	c.appliedSeq = resp.Seq
	c.BytesReceived += int64(len(c.records))
	c.connBytes += int64(len(c.records))
	c.Coefficients += int64(n)
	c.ServerIO += resp.IO
	return n, resp.Dropped, nil
}

// apply routes each wire record's vertex and displacement into its
// object's reconstructor, creating the reconstructor over the client's
// schema on first contact. A response groups its records by object, so
// apply takes one object's run of records at a time: one map look-up,
// and one Reserve for the run's highest vertex id, so the reconstructor
// grows at most once per run. (Ids ascend within a sub-query's records
// but not across a sub-query boundary, which a run can span.)
func (c *Client) apply(records []byte) {
	base := int32(c.schema.BaseVerts())
	for len(records) > 0 {
		obj, top := wavelet.WireIDs(records)
		n := wavelet.WireBytes
		for ; n < len(records); n += wavelet.WireBytes {
			o, v := wavelet.WireIDs(records[n:])
			if o != obj {
				break
			}
			top = max(top, v)
		}
		recon := c.recons[obj]
		if recon == nil {
			recon = c.schema.NewReconstructor(geom.Vec3{})
			c.recons[obj] = recon
		}
		recon.Reserve(top)
		for run := records[:n]; len(run) > 0; run = run[wavelet.WireBytes:] {
			_, v := wavelet.WireIDs(run)
			recon.ApplyDelta(v, wavelet.WireDelta(run), v < base)
		}
		records = records[n:]
	}
}

// Objects returns the ids of objects the client has received data for.
func (c *Client) Objects() []int32 {
	out := make([]int32, 0, len(c.recons))
	for id := range c.recons {
		out = append(out, id)
	}
	return out
}

// Mesh reconstructs one object from everything received so far; ok is
// false if no data has arrived for it.
func (c *Client) Mesh(object int32) (m *mesh.Mesh, ok bool) {
	r, found := c.recons[object]
	if !found {
		return nil, false
	}
	return r.Mesh(), true
}

// CoeffCount returns the number of coefficients held for one object.
func (c *Client) CoeffCount(object int32) int {
	if r, ok := c.recons[object]; ok {
		return r.Count()
	}
	return 0
}

// recordBufs holds the record buffers of closed clients, for the next
// NewSceneClient to start with one grown. The pool gives up what it
// holds across garbage collections.
var recordBufs sync.Pool // of *[]byte

// Close sends a goodbye and closes the connection. A goodbye-write
// failure is reported alongside the close error: the caller learns the
// shutdown was not orderly (the server will park the session in its
// resume cache rather than discard it). After a goodbye the client
// forgets its session token, since the server discards the session: a
// Reconnect greets fresh instead of resuming a session the server may
// not have let go of yet. The record buffer goes to the next client; the
// reconstructors stay, so Objects, Mesh and CoeffCount answer as before.
func (c *Client) Close() error {
	bye := c.w.WriteBye()
	if bye == nil {
		c.token = 0
	}
	err := errors.Join(bye, c.conn.Close())
	if c.records != nil {
		b := c.records[:0]
		recordBufs.Put(&b)
		c.records = nil
	}
	return err
}
