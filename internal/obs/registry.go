// Package obs is the reproduction's dependency-free telemetry layer:
// a Registry of atomic counters, gauges, and fixed-bucket histograms
// cheap enough to leave enabled on hot paths (one atomic add per event),
// plus the job's one event stream — the Recorder, fixed-size records in
// per-rank rings with a deterministic per-rank logical clock, dumped as
// ordered JSONL both as the failure black box and, with a ring large
// enough for the run, as its whole-run log — and pprof capture helpers
// and a live introspection server for the CLIs.
//
// Every instrument is nil-safe: methods on a nil *Counter, *Gauge,
// *Histogram, *Registry, or *Recorder are no-ops (reads return zero).
// This is the disabled path — components hold instrument pointers
// unconditionally and pay only a nil check when telemetry is off.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
	// stripes, set only by Registry.StripedCounter, spread AddAt over
	// cache lines of their own; len is a power of two.
	stripes []counterStripe
}

// counterStripe fills a cache line, so writers on different stripes
// never contend for one.
type counterStripe struct {
	v atomic.Uint64
	_ [56]byte
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// AddAt adds n on behalf of writer i (a rank, say). On a striped
// counter, writers whose indices differ modulo the stripe count update
// different cache lines; on a plain counter it is Add.
func (c *Counter) AddAt(i int, n uint64) {
	if c == nil {
		return
	}
	if len(c.stripes) == 0 {
		c.v.Add(n)
		return
	}
	c.stripes[i&(len(c.stripes)-1)].v.Add(n)
}

// Value returns the current total.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	v := c.v.Load()
	for i := range c.stripes {
		v += c.stripes[i].v.Load()
	}
	return v
}

// Gauge is an atomic instantaneous value. SetMax turns it into a
// high-water mark (e.g. peak mailbox depth).
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// SetMax raises the gauge to v if v exceeds the current value
// (lock-free high-water mark).
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram: bounds are inclusive upper
// edges, with an implicit +Inf bucket at the end. Observe is one atomic
// add plus a short branch-free-ish bucket search.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1
	sum    atomic.Uint64   // math.Float64bits accumulator
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// MillisBuckets is the default bucket layout for wall-time histograms,
// in milliseconds: 1ms to ~2min, roughly ×4 per step.
var MillisBuckets = []float64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 131072}

// Registry is a named set of instruments. Lookup (Counter, Gauge,
// Histogram) is get-or-create under a mutex — fetch instruments once and
// hold them; only the instrument operations themselves are hot-path
// safe. A nil *Registry hands out nil instruments, giving callers a
// zero-cost disabled mode.
type Registry struct {
	mu    sync.Mutex
	ctrs  map[string]*Counter
	gaug  map[string]*Gauge
	hists map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		ctrs:  make(map[string]*Counter),
		gaug:  make(map[string]*Gauge),
		hists: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.ctrs[name]
	if c == nil {
		c = &Counter{}
		r.ctrs[name] = c
	}
	return c
}

// maxStripes caps a striped counter's footprint at 4 KiB.
const maxStripes = 64

// StripedCounter returns the named counter, creating it on first use
// with enough stripes (up to maxStripes) that n concurrent writers
// calling AddAt with distinct indices below n rarely share a cache line.
// A counter that already exists is returned as it is.
func (r *Registry) StripedCounter(name string, n int) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.ctrs[name]
	if c == nil {
		stripes := 1
		for stripes < n && stripes < maxStripes {
			stripes <<= 1
		}
		c = &Counter{stripes: make([]counterStripe, stripes)}
		r.ctrs[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gaug[name]
	if g == nil {
		g = &Gauge{}
		r.gaug[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (later calls reuse the original bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		b := make([]float64, len(bounds))
		copy(b, bounds)
		sort.Float64s(b)
		h = &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}

// CounterValue is a point-in-time counter reading.
type CounterValue struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugeValue is a point-in-time gauge reading.
type GaugeValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistogramValue is a point-in-time histogram reading. Counts[i] pairs
// with Bounds[i]; the final extra count is the +Inf bucket.
type HistogramValue struct {
	Name   string    `json:"name"`
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Sum    float64   `json:"sum"`
}

// Snapshot is a consistent-enough copy of a registry: each instrument is
// read atomically (the set is not frozen as a whole, which is fine for
// monotonic counters). Instruments are sorted by name, so snapshots of
// identical runs render identically.
type Snapshot struct {
	Counters   []CounterValue   `json:"counters"`
	Gauges     []GaugeValue     `json:"gauges,omitempty"`
	Histograms []HistogramValue `json:"histograms,omitempty"`
}

// Snapshot reads every instrument. A nil registry snapshots empty.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.ctrs {
		s.Counters = append(s.Counters, CounterValue{Name: name, Value: c.Value()})
	}
	for name, g := range r.gaug {
		s.Gauges = append(s.Gauges, GaugeValue{Name: name, Value: g.Value()})
	}
	for name, h := range r.hists {
		hv := HistogramValue{Name: name, Sum: h.Sum()}
		hv.Bounds = append(hv.Bounds, h.bounds...)
		for i := range h.counts {
			hv.Counts = append(hv.Counts, h.counts[i].Load())
		}
		s.Histograms = append(s.Histograms, hv)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// Merge folds a snapshot into this registry: counters add, gauges keep
// the maximum (our gauges are high-water marks), histograms add
// bucket-wise. A histogram whose bounds disagree with an existing one of
// the same name is rejected.
func (r *Registry) Merge(s Snapshot) error {
	if r == nil {
		return nil
	}
	for _, c := range s.Counters {
		r.Counter(c.Name).Add(c.Value)
	}
	for _, g := range s.Gauges {
		r.Gauge(g.Name).SetMax(g.Value)
	}
	for _, hv := range s.Histograms {
		h := r.Histogram(hv.Name, hv.Bounds)
		if len(h.bounds) != len(hv.Bounds) || len(h.counts) != len(hv.Counts) {
			return fmt.Errorf("obs: merge histogram %q: bucket shape mismatch", hv.Name)
		}
		for i, b := range h.bounds {
			if b != hv.Bounds[i] {
				return fmt.Errorf("obs: merge histogram %q: bounds differ at %d", hv.Name, i)
			}
		}
		for i, n := range hv.Counts {
			h.counts[i].Add(n)
		}
		for {
			old := h.sum.Load()
			nw := math.Float64bits(math.Float64frombits(old) + hv.Sum)
			if h.sum.CompareAndSwap(old, nw) {
				break
			}
		}
	}
	return nil
}

// Counter returns the named counter's value from the snapshot (0 when
// absent).
func (s Snapshot) Counter(name string) uint64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Gauge returns the named gauge's value from the snapshot (0 when
// absent).
func (s Snapshot) Gauge(name string) int64 {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

// Histogram returns the named histogram reading from the snapshot; ok
// is false when absent (the zero HistogramValue is returned).
func (s Snapshot) Histogram(name string) (hv HistogramValue, ok bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return HistogramValue{}, false
}

// Count returns the total number of observations in the reading.
func (hv HistogramValue) Count() uint64 {
	var n uint64
	for _, c := range hv.Counts {
		n += c
	}
	return n
}

// Quantile estimates the q-quantile (0 < q <= 1) from the bucket counts
// by linear interpolation inside the winning bucket, the same estimator
// Prometheus' histogram_quantile uses: the first bucket interpolates
// from zero, and a quantile landing in the +Inf bucket reports the
// highest finite bound (the estimate cannot exceed observed resolution).
// NaN when the histogram is empty.
func (hv HistogramValue) Quantile(q float64) float64 {
	total := hv.Count()
	if total == 0 || len(hv.Counts) == 0 {
		return math.NaN()
	}
	target := q * float64(total)
	var cum uint64
	for i, c := range hv.Counts {
		cum += c
		if float64(cum) < target {
			continue
		}
		if i >= len(hv.Bounds) {
			// +Inf bucket: no upper edge to interpolate toward.
			if len(hv.Bounds) == 0 {
				return math.NaN()
			}
			return hv.Bounds[len(hv.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = hv.Bounds[i-1]
		}
		hi := hv.Bounds[i]
		inBucket := float64(c)
		if inBucket == 0 {
			return hi
		}
		before := float64(cum) - inBucket
		return lo + (hi-lo)*(target-before)/inBucket
	}
	return hv.Bounds[len(hv.Bounds)-1]
}

// Filter returns a copy of the snapshot keeping only the instruments —
// counters, gauges, and histograms alike — whose name keep accepts.
func (s Snapshot) Filter(keep func(name string) bool) Snapshot {
	var out Snapshot
	for _, c := range s.Counters {
		if keep(c.Name) {
			out.Counters = append(out.Counters, c)
		}
	}
	for _, g := range s.Gauges {
		if keep(g.Name) {
			out.Gauges = append(out.Gauges, g)
		}
	}
	for _, h := range s.Histograms {
		if keep(h.Name) {
			out.Histograms = append(out.Histograms, h)
		}
	}
	return out
}

// FilterCounters is the counters-only projection of Filter: gauges and
// histograms are stripped (they carry wall-time readings, which golden
// tests that pin the deterministic counter subset must exclude). Use
// Filter to keep all three instrument families.
func (s Snapshot) FilterCounters(keep func(name string) bool) Snapshot {
	out := s.Filter(keep)
	out.Gauges, out.Histograms = nil, nil
	return out
}

// Format renders the snapshot as an aligned text table.
func (s Snapshot) Format() string {
	var b strings.Builder
	width := 0
	for _, c := range s.Counters {
		if len(c.Name) > width {
			width = len(c.Name)
		}
	}
	for _, g := range s.Gauges {
		if len(g.Name) > width {
			width = len(g.Name)
		}
	}
	for _, h := range s.Histograms {
		if len(h.Name) > width {
			width = len(h.Name)
		}
	}
	if len(s.Counters) > 0 {
		b.WriteString("counters:\n")
		for _, c := range s.Counters {
			fmt.Fprintf(&b, "  %-*s %d\n", width, c.Name, c.Value)
		}
	}
	if len(s.Gauges) > 0 {
		b.WriteString("gauges:\n")
		for _, g := range s.Gauges {
			fmt.Fprintf(&b, "  %-*s %d\n", width, g.Name, g.Value)
		}
	}
	if len(s.Histograms) > 0 {
		b.WriteString("histograms:\n")
		for _, h := range s.Histograms {
			n := h.Count()
			fmt.Fprintf(&b, "  %-*s count=%d sum=%.3f", width, h.Name, n, h.Sum)
			if n > 0 {
				fmt.Fprintf(&b, " p50=%g p90=%g p99=%g",
					h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99))
			}
			b.WriteByte('\n')
			for i, c := range h.Counts {
				if c == 0 {
					continue
				}
				if i < len(h.Bounds) {
					fmt.Fprintf(&b, "  %-*s   le=%g: %d\n", width, "", h.Bounds[i], c)
				} else {
					fmt.Fprintf(&b, "  %-*s   le=+Inf: %d\n", width, "", c)
				}
			}
		}
	}
	return b.String()
}
