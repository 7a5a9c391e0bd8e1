// Package netsim models the wireless link between the mobile client and
// the server: a 256 Kbps / 200 ms connection (paper §VII-A) whose usable
// bandwidth degrades while the client is in motion (the Ofcom observation
// cited in the paper's introduction: a moving client sees a fraction of
// the stationary bandwidth). Total transfer cost follows equation (1):
// every server contact pays the connection cost C_c plus C_t per block
// byte moved.
package netsim

import "fmt"

// Link is a deterministic wireless-link model.
type Link struct {
	// BitsPerSecond is the nominal downlink bandwidth for a stationary
	// client. The paper uses 256 Kbps.
	BitsPerSecond float64
	// LatencySeconds is the connection-establishment cost C_c paid once per
	// server contact. The paper uses 200 ms.
	LatencySeconds float64
	// MotionDerate is the fraction of bandwidth lost at normalized speed
	// 1.0; usable bandwidth is BitsPerSecond · (1 − MotionDerate·speed).
	// Mobile measurements report moving clients at a fraction of the
	// stationary rate; 0.5 is the default.
	MotionDerate float64
}

// DefaultLink returns the paper's experimental link: 256 Kbps, 200 ms,
// half the bandwidth lost at full speed.
func DefaultLink() Link {
	return Link{BitsPerSecond: 256_000, LatencySeconds: 0.200, MotionDerate: 0.5}
}

// Validate reports whether the link parameters are usable.
func (l Link) Validate() error {
	if l.BitsPerSecond <= 0 {
		return fmt.Errorf("netsim: bandwidth %v must be positive", l.BitsPerSecond)
	}
	if l.LatencySeconds < 0 {
		return fmt.Errorf("netsim: negative latency %v", l.LatencySeconds)
	}
	if l.MotionDerate < 0 || l.MotionDerate >= 1 {
		return fmt.Errorf("netsim: motion derate %v out of [0,1)", l.MotionDerate)
	}
	return nil
}

// Throughput returns the usable bandwidth in bits per second for a client
// moving at the given normalized speed (clamped to [0, 1]).
func (l Link) Throughput(speed float64) float64 {
	if speed < 0 {
		speed = 0
	}
	if speed > 1 {
		speed = 1
	}
	return l.BitsPerSecond * (1 - l.MotionDerate*speed)
}

// TransferSeconds returns the time to move the given payload at the given
// speed, excluding connection establishment.
func (l Link) TransferSeconds(bytes int64, speed float64) float64 {
	if bytes <= 0 {
		return 0
	}
	return float64(bytes*8) / l.Throughput(speed)
}

// RequestSeconds returns the full cost of one server contact: connection
// establishment plus payload transfer — one term of equation (1).
func (l Link) RequestSeconds(bytes int64, speed float64) float64 {
	return l.LatencySeconds + l.TransferSeconds(bytes, speed)
}
