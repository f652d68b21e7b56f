package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. Increments are atomic so
// concurrent harnesses (parallel benchmarks) can share
// one registry; all methods tolerate a nil receiver so disabled
// instruments cost one branch.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current value.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins metric.
type Gauge struct {
	v atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v uint64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Load returns the current value.
func (g *Gauge) Load() uint64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// HistBuckets is the number of histogram buckets: bucket 0 holds the value
// zero, bucket i (1..64) holds values v with bits.Len64(v) == i, i.e. the
// range [2^(i-1), 2^i-1]. Exponential buckets suit simulated-cycle
// durations, which span from a handful of cycles (a fast-path trap) to
// millions (a firmware boot phase).
const HistBuckets = 65

// Histogram accumulates a distribution of uint64 samples (typically
// simulated-cycle durations) in power-of-two buckets.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [HistBuckets]atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[HistBucketIndex(v)].Add(1)
}

// HistBucketIndex maps a sample to its bucket.
func HistBucketIndex(v uint64) int { return bits.Len64(v) }

// HistBucketBounds returns the inclusive [lo, hi] range of bucket i.
func HistBucketBounds(i int) (lo, hi uint64) {
	if i == 0 {
		return 0, 0
	}
	lo = 1 << (i - 1)
	if i == 64 {
		return lo, ^uint64(0)
	}
	return lo, 1<<i - 1
}

// HistSnapshot is a point-in-time copy of a histogram.
type HistSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"` // only non-empty buckets
}

// Bucket is one non-empty histogram bucket.
type Bucket struct {
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi"`
	Count uint64 `json:"count"`
}

func (h *Histogram) snapshot() HistSnapshot {
	s := HistSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	for i := 0; i < HistBuckets; i++ {
		if n := h.buckets[i].Load(); n > 0 {
			lo, hi := HistBucketBounds(i)
			s.Buckets = append(s.Buckets, Bucket{Lo: lo, Hi: hi, Count: n})
		}
	}
	return s
}

// Registry is a named collection of instruments. Instruments are created
// on first use and live for the registry's lifetime; lookups happen at
// attach time (or on cold paths), never per simulated instruction. All
// methods tolerate a nil receiver — a nil *Registry hands out nil
// instruments, which are themselves no-ops.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	collectors []func(emit func(name string, value uint64))
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Collect registers a snapshot-time callback. Collectors let subsystems
// keep plain (non-atomic) hot-path counters next to their own state and
// surface them only when a snapshot is taken; the emitted name/value pairs
// appear alongside registry-owned instruments (same name: last emit wins).
func (r *Registry) Collect(fn func(emit func(name string, value uint64))) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// Snapshot is a point-in-time view of every instrument.
type Snapshot struct {
	Values map[string]uint64       `json:"values"`
	Hists  map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures all instruments and runs every collector.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Values: map[string]uint64{}, Hists: map[string]HistSnapshot{}}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	collectors := append([]func(func(string, uint64)){}, r.collectors...)
	r.mu.Unlock()

	for name, c := range counters {
		s.Values[name] = c.Load()
	}
	for name, g := range gauges {
		s.Values[name] = g.Load()
	}
	for name, h := range hists {
		s.Hists[name] = h.snapshot()
	}
	for _, fn := range collectors {
		fn(func(name string, value uint64) { s.Values[name] = value })
	}
	return s
}

// Dump renders the snapshot as sorted, aligned plain text.
func (r *Registry) Dump() string {
	s := r.Snapshot()
	names := make([]string, 0, len(s.Values))
	for n := range s.Values {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%-48s %d\n", n, s.Values[n])
	}
	hnames := make([]string, 0, len(s.Hists))
	for n := range s.Hists {
		hnames = append(hnames, n)
	}
	sort.Strings(hnames)
	for _, n := range hnames {
		h := s.Hists[n]
		mean := 0.0
		if h.Count > 0 {
			mean = float64(h.Sum) / float64(h.Count)
		}
		fmt.Fprintf(&b, "%-48s count=%d sum=%d mean=%.1f\n", n, h.Count, h.Sum, mean)
		for _, bk := range h.Buckets {
			fmt.Fprintf(&b, "  [%d, %d]: %d\n", bk.Lo, bk.Hi, bk.Count)
		}
	}
	return b.String()
}

// WriteJSON emits the snapshot as machine-readable JSON (the form CI
// consumes and uploads as an artifact).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// HitRatePct is the shared helper for hit-rate reporting: the percentage
// of hits among hits+misses, as an integer in [0, 100] (metrics values are
// uint64). Returns 0 when there were no events.
func HitRatePct(hits, misses uint64) uint64 {
	if hits+misses == 0 {
		return 0
	}
	return 100 * hits / (hits + misses)
}
