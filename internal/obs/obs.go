package obs

import (
	"encoding/json"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; counters obtained from a Registry are additionally
// visible in its Snapshot.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Reset zeroes the counter in place, so cached pointers stay valid.
func (c *Counter) Reset() { c.v.Store(0) }

// Gauge is an atomically settable instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Registry is a named collection of metrics. All methods are safe for
// concurrent use; the get-or-create accessors return a stable pointer
// for a given name, so callers resolve each metric once and cache it.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	gaugeFns map[string]func() int64
	hists    map[string]*Histogram
	slow     *SlowLog
}

// New returns an empty registry with a slow-query log of the default
// capacity and threshold.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		gaugeFns: make(map[string]func() int64),
		hists:    make(map[string]*Histogram),
		slow:     NewSlowLog(DefaultSlowLogCap),
	}
}

// Default is the process-wide registry every engine layer publishes to.
var Default = New()

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a gauge computed on demand at snapshot time —
// zero hot-path cost for values another subsystem already maintains
// (the database epoch, a cache's current size). Re-registering a name
// replaces the function.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFns[name] = fn
}

// Histogram returns the histogram registered under name, creating it
// on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// SlowLog returns the registry's slow-query log.
func (r *Registry) SlowLog() *SlowLog { return r.slow }

// Reset zeroes every registered metric in place and clears the slow
// log. Pointers previously returned by the accessors remain valid —
// callers that cached a *Counter keep counting into the same object —
// which is what makes Reset usable for test isolation and benchmark
// scenario boundaries.
func (r *Registry) Reset() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.counters {
		c.Reset()
	}
	for _, g := range r.gauges {
		g.Set(0)
	}
	for _, h := range r.hists {
		h.Reset()
	}
	r.slow.Clear()
}

// Snapshot is a point-in-time, JSON-marshalable dump of a registry —
// the expvar-style document the CLI's \metrics command prints and the
// server's metrics op returns.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every registered metric. Writers may race the
// capture; each metric is read atomically, but the set is not a
// consistent cut across metrics (which monitoring does not need).
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)+len(r.gaugeFns)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	for name, fn := range r.gaugeFns {
		s.Gauges[name] = fn()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// CounterDelta returns the counter increments since prev, omitting
// zero deltas and counters absent from the receiver. A counter that
// went backwards was Reset mid-interval (plan-cache counters at a
// benchmark boundary, say); following monitoring convention the delta
// then falls back to the count since the reset rather than wrapping.
// A benchmark uses this to account for its measured window without
// resetting live metrics.
func (s Snapshot) CounterDelta(prev Snapshot) map[string]uint64 {
	d := make(map[string]uint64)
	for name, v := range s.Counters {
		dv := v - prev.Counters[name]
		if v < prev.Counters[name] {
			dv = v
		}
		if dv != 0 {
			d[name] = dv
		}
	}
	return d
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(b *strings.Builder) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	b.Write(data)
	b.WriteByte('\n')
	return nil
}

// String renders the snapshot as sorted human-readable lines — the
// CLI's \metrics format. Counters and gauges print name and value;
// histograms print count, mean and the estimated p50/p95/p99 (in
// time.Duration rendering for the conventional *_ns metrics, raw
// integers otherwise).
func (s Snapshot) String() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmtMetricLine(&b, n, int64(s.Counters[n]))
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmtMetricLine(&b, n, s.Gauges[n])
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s.Histograms[n].render(&b, n)
	}
	return b.String()
}
