package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("c") != c {
		t.Fatal("counter not reused by name")
	}

	g := r.Gauge("g")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	g.SetMax(3)
	if got := g.Value(); got != 5 {
		t.Fatalf("SetMax lowered gauge to %d", got)
	}
	g.SetMax(9)
	if got := g.Value(); got != 9 {
		t.Fatalf("SetMax = %d, want 9", got)
	}

	h := r.Histogram("h", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)
	if got := h.Count(); got != 3 {
		t.Fatalf("hist count = %d, want 3", got)
	}
	if got := h.Sum(); got != 55.5 {
		t.Fatalf("hist sum = %v, want 55.5", got)
	}

	snap := r.Snapshot()
	if snap.Counter("c") != 5 || snap.Gauge("g") != 9 {
		t.Fatalf("snapshot lookup: %+v", snap)
	}
	if len(snap.Histograms) != 1 || snap.Histograms[0].Counts[1] != 1 {
		t.Fatalf("snapshot histograms: %+v", snap.Histograms)
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x", MillisBuckets)
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	g.SetMax(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments retained state")
	}
	if err := r.Merge(Snapshot{}); err != nil {
		t.Fatal(err)
	}
	if snap := r.Snapshot(); len(snap.Counters) != 0 {
		t.Fatalf("nil registry snapshot: %+v", snap)
	}
}

// TestStripedCounterSumsStripes checks that a striped counter reads and
// snapshots as the sum of every AddAt and Add, whatever the writer
// index, and that a later lookup by name returns the same counter.
func TestStripedCounterSumsStripes(t *testing.T) {
	r := NewRegistry()
	c := r.StripedCounter("sends", 6)
	if got := len(c.stripes); got != 8 {
		t.Fatalf("%d stripes for 6 writers, want 8", got)
	}
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.AddAt(i, 2)
			}
		}(i)
	}
	wg.Wait()
	c.Add(5)
	if got := c.Value(); got != 20*1000*2+5 {
		t.Fatalf("Value = %d, want %d", got, 20*1000*2+5)
	}
	if r.Counter("sends") != c || r.StripedCounter("sends", 64) != c {
		t.Fatal("lookup by name returned a different counter")
	}
	if got := r.Snapshot().Counter("sends"); got != c.Value() {
		t.Fatalf("snapshot = %d, want %d", got, c.Value())
	}
	plain := r.Counter("plain")
	plain.AddAt(3, 7)
	if plain.Value() != 7 {
		t.Fatalf("AddAt on a plain counter: %d, want 7", plain.Value())
	}
	var nilc *Counter
	nilc.AddAt(0, 1)
}

// TestRegistryConcurrentHammer drives one registry from many goroutines
// — concurrent counter/gauge/histogram updates, instrument creation, and
// snapshotting — and verifies the totals. Run under -race this is the
// registry's thread-safety proof.
func TestRegistryConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	const (
		workers = 16
		iters   = 2000
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Snapshot continuously while writers hammer.
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.Snapshot()
			}
		}
	}()
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			c := r.Counter("shared_total")
			g := r.Gauge("hwm")
			h := r.Histogram("lat_ms", MillisBuckets)
			for i := 0; i < iters; i++ {
				c.Inc()
				r.Counter("late_bound_total").Add(2)
				g.SetMax(int64(w*iters + i))
				h.Observe(float64(i % 300))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()

	snap := r.Snapshot()
	if got := snap.Counter("shared_total"); got != workers*iters {
		t.Fatalf("shared_total = %d, want %d", got, workers*iters)
	}
	if got := snap.Counter("late_bound_total"); got != 2*workers*iters {
		t.Fatalf("late_bound_total = %d, want %d", got, 2*workers*iters)
	}
	if got := snap.Gauge("hwm"); got != int64(workers*iters-1) {
		t.Fatalf("hwm = %d, want %d", got, workers*iters-1)
	}
	var hcount uint64
	for _, h := range snap.Histograms {
		if h.Name == "lat_ms" {
			for _, n := range h.Counts {
				hcount += n
			}
		}
	}
	if hcount != workers*iters {
		t.Fatalf("histogram count = %d, want %d", hcount, workers*iters)
	}
}

func TestMergeAddsCountersMaxesGauges(t *testing.T) {
	a := NewRegistry()
	a.Counter("c").Add(3)
	a.Gauge("g").Set(10)
	a.Histogram("h", []float64{1, 2}).Observe(1.5)

	b := NewRegistry()
	b.Counter("c").Add(4)
	b.Gauge("g").Set(7)
	b.Histogram("h", []float64{1, 2}).Observe(0.5)

	if err := a.Merge(b.Snapshot()); err != nil {
		t.Fatal(err)
	}
	snap := a.Snapshot()
	if got := snap.Counter("c"); got != 7 {
		t.Fatalf("merged counter = %d, want 7", got)
	}
	if got := snap.Gauge("g"); got != 10 {
		t.Fatalf("merged gauge = %d, want 10 (max)", got)
	}
	for _, h := range snap.Histograms {
		if h.Name == "h" {
			if h.Counts[0] != 1 || h.Counts[1] != 1 || h.Sum != 2 {
				t.Fatalf("merged histogram: %+v", h)
			}
		}
	}

	// Shape mismatch is rejected.
	c := NewRegistry()
	c.Histogram("h", []float64{5}).Observe(1)
	if err := a.Merge(c.Snapshot()); err == nil {
		t.Fatal("mismatched histogram bounds merged silently")
	}
}

func TestSnapshotFormatAndJSONDeterministic(t *testing.T) {
	mk := func() Snapshot {
		r := NewRegistry()
		r.Counter("b_total").Add(2)
		r.Counter("a_total").Add(1)
		r.Gauge("depth_hwm").Set(4)
		r.Histogram("ms", []float64{10}).Observe(3)
		return r.Snapshot()
	}
	s1, s2 := mk(), mk()
	j1, err := json.Marshal(s1)
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := json.Marshal(s2)
	if string(j1) != string(j2) {
		t.Fatalf("snapshot JSON not deterministic:\n%s\n%s", j1, j2)
	}
	text := s1.Format()
	if !strings.Contains(text, "a_total") || !strings.Contains(text, "depth_hwm") {
		t.Fatalf("format missing instruments:\n%s", text)
	}
	if strings.Index(text, "a_total") > strings.Index(text, "b_total") {
		t.Fatalf("counters not sorted:\n%s", text)
	}

	filtered := s1.FilterCounters(func(name string) bool { return name != "b_total" })
	if len(filtered.Counters) != 1 || filtered.Counters[0].Name != "a_total" {
		t.Fatalf("filter: %+v", filtered)
	}
	if len(filtered.Gauges) != 0 || len(filtered.Histograms) != 0 {
		t.Fatalf("filter kept non-counters: %+v", filtered)
	}
}
