package main

import (
	"fmt"
	"math"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/proto"
)

// countConn counts the bytes that cross one client's socket in both
// directions. A client's connections are used by its goroutine alone, so
// the counter needs no synchronization.
type countConn struct {
	net.Conn
	n *int64
}

func (c countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	*c.n += int64(n)
	return n, err
}

func (c countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	*c.n += int64(n)
	return n, err
}

// loadResult is what the closed loop observed, summed over the clients.
type loadResult struct {
	// lat holds one Client.Frame call-to-return latency per timed frame,
	// in nanoseconds, ascending. dials holds one connect + hello time per
	// timed trip.
	lat   []int64
	dials []int64
	// frames and wireBytes cover the timed phase; wall is its length, from
	// the common start to the last client's stop.
	frames    int
	wireBytes int64
	wall      time.Duration
	// framesPerS, p50 and p99 (nanoseconds) are medians over the timed
	// phase's whole windows of each window's rate and percentiles, so a
	// burst of interference from outside the process moves them little.
	framesPerS, p50, p99 float64
	// attempted counts every frame issued, warm-up included; failed those
	// that returned an error or disagreed with the oracle, plus warm-up
	// trips whose end state did. firstErr describes the first of them.
	attempted, failed int
	firstErr          error
}

type clientLoad struct {
	lat, dials []int64
	// marks[w] is the index in lat of the first frame that completed in
	// the w-th window of the timed phase.
	marks             []int
	frames            int
	wireBytes         int64
	stopped           time.Time
	attempted, failed int
	firstErr          error
}

func (cl *clientLoad) fail(err error) {
	cl.failed++
	if cl.firstErr == nil {
		cl.firstErr = err
	}
}

// runTrip dials, issues the trip's frames and says bye. Every frame's
// new-coefficient count is checked against the oracle's. With timed set
// it records latencies and stops dur after t0; otherwise it is a
// warm-up trip and the client's end state is checked too. It reports
// false once the deadline has passed or the connection is lost.
func (cl *clientLoad) runTrip(addr string, t trip, want expectation, timed bool, t0 time.Time, dur time.Duration) bool {
	var wire int64
	d0 := time.Now()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		cl.fail(fmt.Errorf("dial: %w", err))
		return false
	}
	c, err := proto.NewClient(countConn{conn, &wire}, nil)
	if err != nil {
		cl.fail(fmt.Errorf("hello: %w", err))
		return false
	}
	start := time.Now()
	if timed {
		cl.dials = append(cl.dials, int64(start.Sub(d0)))
	}
	more := true
	for i, fr := range t {
		n, err := c.Frame(fr.Q, fr.Speed)
		end := time.Now()
		cl.attempted++
		if err != nil {
			cl.fail(fmt.Errorf("frame %d: %w", i, err))
			conn.Close()
			return false
		}
		if int32(n) != want.counts[i] {
			cl.fail(fmt.Errorf("frame %d: %d new coefficients, oracle says %d", i, n, want.counts[i]))
		}
		if timed {
			since := end.Sub(t0)
			for len(cl.marks) <= int(since/window) {
				cl.marks = append(cl.marks, len(cl.lat))
			}
			cl.lat = append(cl.lat, int64(end.Sub(start)))
			cl.frames++
			if since >= dur {
				more = false
				break
			}
		}
		start = end
	}
	if !timed && want.final != nil {
		if err := checkFinal(c, want.final); err != nil {
			cl.fail(err)
		}
	}
	if err := c.Close(); err != nil {
		cl.fail(fmt.Errorf("bye: %w", err))
	}
	if timed {
		cl.wireBytes += wire
	}
	return more
}

// runLoad drives the served stack closed-loop: numClients goroutines,
// one connection each, no think time. Each client first runs its warm
// trips untimed; when all have, the heap is collected and the timed
// phase starts for everyone at once and lasts dur, each client cycling
// through its pool from the first trip after the warm-up.
func runLoad(addr string, trips [numClients][]trip, want [numClients][]expectation, warm int, dur time.Duration) loadResult {
	var loads [numClients]clientLoad
	var warmed, done sync.WaitGroup
	begin := make(chan time.Time)
	for c := range loads {
		cl := &loads[c]
		// Room for the whole timed phase at 40 k frames/s per client, so
		// the slice does not grow while the clock runs.
		cl.lat = make([]int64, 0, int(dur.Seconds()*40e3)+1024)
		warmed.Add(1)
		done.Add(1)
		go func(c int) {
			defer done.Done()
			// Any failure ends the client: the run has failed, and what
			// it would measure from then on is not the workload.
			for k := 0; k < warm && cl.failed == 0; k++ {
				cl.runTrip(addr, trips[c][k], want[c][k], false, time.Time{}, 0)
			}
			warmed.Done()
			t0 := <-begin
			for k, more := warm, true; more && cl.failed == 0; k++ {
				i := k % len(trips[c])
				more = cl.runTrip(addr, trips[c][i], want[c][i], true, t0, dur)
			}
			cl.stopped = time.Now()
		}(c)
	}
	warmed.Wait()
	runtime.GC()
	t0 := time.Now()
	for range loads {
		begin <- t0
	}
	done.Wait()

	var r loadResult
	for c := range loads {
		cl := &loads[c]
		r.lat = append(r.lat, cl.lat...)
		r.dials = append(r.dials, cl.dials...)
		r.frames += cl.frames
		r.wireBytes += cl.wireBytes
		r.attempted += cl.attempted
		r.failed += cl.failed
		if r.firstErr == nil && cl.firstErr != nil {
			r.firstErr = fmt.Errorf("client %d: %w", c, cl.firstErr)
		}
		if w := cl.stopped.Sub(t0); w > r.wall {
			r.wall = w
		}
	}
	r.framesPerS, r.p50, r.p99 = windowMedians(&loads, dur)
	sort.Slice(r.lat, func(i, j int) bool { return r.lat[i] < r.lat[j] })
	return r
}

// window is the length of the slices the timed phase is cut into.
const window = time.Second

// windowMedians cuts the timed phase into windows by frame completion
// time, takes each whole window's frame rate, p50 and p99 over all
// clients, and returns the medians of the three. A phase shorter than two
// windows is one window.
func windowMedians(loads *[numClients]clientLoad, dur time.Duration) (framesPerS, p50, p99 float64) {
	n, length := int(dur/window), window
	if n < 2 {
		n, length = 1, dur
	}
	var rates, p50s, p99s []float64
	var lat []int64
	for w := 0; w < n; w++ {
		lat = lat[:0]
		for c := range loads {
			cl := &loads[c]
			lo, hi := len(cl.lat), len(cl.lat)
			if w < len(cl.marks) {
				lo = cl.marks[w]
			}
			if w+1 < len(cl.marks) && n > 1 {
				hi = cl.marks[w+1]
			}
			lat = append(lat, cl.lat[lo:hi]...)
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		rates = append(rates, float64(len(lat))/length.Seconds())
		p50s = append(p50s, float64(percentile(lat, 50)))
		p99s = append(p99s, float64(percentile(lat, 99)))
	}
	return median(rates), median(p50s), median(p99s)
}

// median returns the middle value (the mean of the middle two); 0 for no
// values. It sorts xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of an
// ascending sample; 0 for an empty one.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s / float64(len(xs))
}
