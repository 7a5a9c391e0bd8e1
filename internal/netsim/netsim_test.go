package netsim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultLinkMatchesPaper(t *testing.T) {
	l := DefaultLink()
	if l.BitsPerSecond != 256_000 || l.LatencySeconds != 0.200 {
		t.Errorf("link = %+v", l)
	}
	if err := l.Validate(); err != nil {
		t.Error(err)
	}
}

func TestValidateRejectsBadLinks(t *testing.T) {
	bad := []Link{
		{BitsPerSecond: 0, LatencySeconds: 0.1},
		{BitsPerSecond: 100, LatencySeconds: -1},
		{BitsPerSecond: 100, LatencySeconds: 0.1, MotionDerate: 1.0},
		{BitsPerSecond: 100, LatencySeconds: 0.1, MotionDerate: -0.1},
	}
	for _, l := range bad {
		if l.Validate() == nil {
			t.Errorf("link %+v validated", l)
		}
	}
}

func TestThroughputDerating(t *testing.T) {
	l := DefaultLink()
	if got := l.Throughput(0); got != 256_000 {
		t.Errorf("stationary throughput = %v", got)
	}
	if got := l.Throughput(1); got != 128_000 {
		t.Errorf("full-speed throughput = %v", got)
	}
	if got := l.Throughput(0.5); got != 192_000 {
		t.Errorf("half-speed throughput = %v", got)
	}
	// Clamping.
	if l.Throughput(-5) != l.Throughput(0) || l.Throughput(7) != l.Throughput(1) {
		t.Error("speed not clamped")
	}
}

func TestTransferTime(t *testing.T) {
	l := Link{BitsPerSecond: 8000, LatencySeconds: 0.1}
	// 1000 bytes = 8000 bits = 1 second at 8 kbps.
	if got := l.TransferSeconds(1000, 0); math.Abs(got-1) > 1e-12 {
		t.Errorf("transfer = %v", got)
	}
	if got := l.RequestSeconds(1000, 0); math.Abs(got-1.1) > 1e-12 {
		t.Errorf("request = %v", got)
	}
	if l.TransferSeconds(0, 0) != 0 || l.TransferSeconds(-5, 0) != 0 {
		t.Error("empty transfer should be free")
	}
	// Latency still applies to empty requests.
	if got := l.RequestSeconds(0, 0); got != 0.1 {
		t.Errorf("empty request = %v", got)
	}
}

func TestMovingTransfersSlower(t *testing.T) {
	l := DefaultLink()
	f := func(kb uint16, speedRaw float64) bool {
		bytes := int64(kb) + 1
		speed := math.Abs(math.Mod(speedRaw, 1))
		if math.IsNaN(speed) {
			speed = 0.5
		}
		return l.TransferSeconds(bytes, speed) >= l.TransferSeconds(bytes, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestUsageAccumulation(t *testing.T) {
	l := Link{BitsPerSecond: 8000, LatencySeconds: 0.1}
	var u Usage
	d1 := u.Record(l, 1000, 0) // 1.1 s
	d2 := u.Record(l, 2000, 0) // 2.1 s
	if math.Abs(d1-1.1) > 1e-12 || math.Abs(d2-2.1) > 1e-12 {
		t.Errorf("durations %v %v", d1, d2)
	}
	if u.Requests != 2 || u.Bytes != 3000 {
		t.Errorf("usage = %+v", u)
	}
	if got := u.MeanResponseSeconds(); math.Abs(got-1.6) > 1e-12 {
		t.Errorf("mean = %v", got)
	}
	var empty Usage
	if empty.MeanResponseSeconds() != 0 {
		t.Error("empty usage mean should be 0")
	}
}

func TestTourCostEquation1(t *testing.T) {
	// C = Σ_j (C_c + C_t·B·N(j)): three contacts moving 1, 2, 3 blocks of
	// 1000 bytes each at 8 kbps with C_c = 0.1 s.
	l := Link{BitsPerSecond: 8000, LatencySeconds: 0.1}
	got := l.TourCost([]int64{1000, 2000, 3000})
	want := 3*0.1 + (1.0 + 2.0 + 3.0)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("tour cost = %v want %v", got, want)
	}
	if l.TourCost(nil) != 0 {
		t.Error("empty tour should cost nothing")
	}
}

func TestLatencyDominatesSmallTransfers(t *testing.T) {
	// The regime both the buffer manager and the multiresolution retrieval
	// exploit: many small requests are latency-bound, one large request is
	// bandwidth-bound.
	l := DefaultLink()
	many := l.TourCost([]int64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100})
	one := l.TourCost([]int64{1000})
	if many <= one {
		t.Errorf("10 small requests (%v s) should cost more than one batch (%v s)", many, one)
	}
}

// Usage accumulates link activity over a tour — the running form of
// equation (1) the tests check the link model against.
type Usage struct {
	Requests int64
	Bytes    int64
	Seconds  float64
}

// Record adds one request to the usage at the given speed and returns its
// duration.
func (u *Usage) Record(l Link, bytes int64, speed float64) float64 {
	d := l.RequestSeconds(bytes, speed)
	u.Requests++
	u.Bytes += bytes
	u.Seconds += d
	return d
}

// MeanResponseSeconds returns the average request duration; 0 before any
// request.
func (u *Usage) MeanResponseSeconds() float64 {
	if u.Requests == 0 {
		return 0
	}
	return u.Seconds / float64(u.Requests)
}

// TourCost evaluates equation (1) directly: M server contacts moving
// blockBytes[j] each cost Σ_j (C_c + C_t·B·N(j)), with C_c the latency
// and the transfer term expressed through the stationary bandwidth.
func (l Link) TourCost(blockBytes []int64) float64 {
	var total float64
	for _, b := range blockBytes {
		total += l.RequestSeconds(b, 0)
	}
	return total
}
