package obs

import (
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"
	"time"
)

// histBuckets bounds the histogram: bucket k holds values v with
// bits.Len64(v) == k, i.e. v ∈ [2^(k-1), 2^k). Bucket 0 holds exactly
// zero. 48 buckets cover nanosecond durations up to ~39 hours before
// the last bucket saturates — every latency this engine can produce.
const histBuckets = 48

// Histogram is a bounded exponential-bucket histogram over non-negative
// int64 values (by convention nanoseconds for metrics named *_ns).
// Observe is lock-free: one bit-length computation plus three atomic
// adds (plus a CAS loop only when a new maximum is set). Quantile
// estimates carry bucket resolution: the estimate always lands in the
// same power-of-two bucket as the true quantile, so it is within a
// factor of two — the property test in histogram_test.go locks this.
// The zero value is ready to use.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
}

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	k := bits.Len64(uint64(v))
	if k >= histBuckets {
		return histBuckets - 1
	}
	return k
}

// bucketBounds returns the inclusive value range bucket k covers (the
// last bucket is open-ended and reports the int64 maximum).
func bucketBounds(k int) (lo, hi int64) {
	if k == 0 {
		return 0, 0
	}
	lo = int64(1) << (k - 1)
	if k == histBuckets-1 {
		return lo, 1<<63 - 1
	}
	return lo, int64(1)<<k - 1
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// ObserveSince records the elapsed time since t0 in nanoseconds.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(int64(time.Since(t0))) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Quantile estimates the q-quantile (0 < q ≤ 1) of the observed
// values: the bucket holding the ⌈q·count⌉-th smallest observation,
// linearly interpolated by rank within the bucket. Returns 0 when
// empty. Concurrent observations make the estimate approximate, never
// panic.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(total))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for k := 0; k < histBuckets; k++ {
		c := h.counts[k].Load()
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo, hi := bucketBounds(k)
			// No observation exceeds the max, so it caps every bucket's
			// upper bound — and is the only bound the open-ended overflow
			// bucket has. (max trails counts for an instant under a
			// concurrent Observe; never let hi fall below lo.)
			if m := h.max.Load(); hi > m {
				hi = max(m, lo)
			}
			// Interpolate by rank position within the bucket.
			frac := float64(rank-cum) / float64(c)
			return lo + int64(frac*float64(hi-lo))
		}
		cum += c
	}
	return h.max.Load()
}

// Reset zeroes the histogram in place.
func (h *Histogram) Reset() {
	for k := range h.counts {
		h.counts[k].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
}

// HistogramSnapshot is the JSON form of a histogram: observation count,
// sum and max, plus the estimated 50th/95th/99th percentiles.
type HistogramSnapshot struct {
	Count uint64 `json:"count"`
	Sum   int64  `json:"sum"`
	Max   int64  `json:"max"`
	P50   int64  `json:"p50"`
	P95   int64  `json:"p95"`
	P99   int64  `json:"p99"`
}

// Snapshot captures the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}

// render writes the histogram's one-line human rendering, formatting
// values as durations for the *_ns naming convention.
func (s HistogramSnapshot) render(b *strings.Builder, name string) {
	if s.Count == 0 {
		fmt.Fprintf(b, "%-42s (no observations)\n", name)
		return
	}
	mean := s.Sum / int64(s.Count)
	if strings.HasSuffix(name, "_ns") {
		fmt.Fprintf(b, "%-42s n=%d mean=%s p50=%s p95=%s p99=%s max=%s\n", name,
			s.Count, time.Duration(mean), time.Duration(s.P50),
			time.Duration(s.P95), time.Duration(s.P99), time.Duration(s.Max))
		return
	}
	fmt.Fprintf(b, "%-42s n=%d mean=%d p50=%d p95=%d p99=%d max=%d\n", name,
		s.Count, mean, s.P50, s.P95, s.P99, s.Max)
}

// fmtMetricLine writes one counter/gauge line.
func fmtMetricLine(b *strings.Builder, name string, v int64) {
	fmt.Fprintf(b, "%-42s %d\n", name, v)
}
