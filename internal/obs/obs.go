// Package obs is the pipeline's observability layer: atomic counters,
// gauges and fixed-bucket histograms that the map-reduce engine, the
// experiments harness and the top-level inference pipeline record into.
//
// The design follows the same algebraic discipline as type fusion: a
// Registry's Snapshot is a plain value (Metrics) and snapshots merge
// with an associative, commutative Merge — counters add, gauges keep
// the maximum, histograms add bucket-wise — so per-partition metrics
// reduce in any order, exactly like the schemas they describe. The
// merge laws are property-tested next to this package the way the
// fusion laws are tested in internal/fusion.
//
// Everything is stdlib-only and safe for concurrent use. Recording
// costs one mutex-guarded map lookup plus one atomic op per event;
// call sites that need less than that hold the returned *Counter,
// *Gauge or *Histogram and hit the atomics directly. A nil Recorder
// is the universal "don't record" value: every instrumented component
// guards with a single nil check, so the uninstrumented hot path pays
// one predictable branch (benchmarked in the repository root).
//
// Metric naming convention: names are lowercase snake_case, prefixed
// by the recording component (mapreduce_, experiments_, infer_,
// cluster_). Names ending in _ns, _permille, _per_sec carry host
// timing and are stripped by Metrics.WithoutTimings; everything else
// (counts, sizes) is deterministic for a fixed input and
// configuration. See docs/OBSERVABILITY.md for the full inventory.
package obs

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Recorder receives pipeline measurements. Implementations must be
// safe for concurrent use. A nil Recorder means "don't record";
// instrumented code guards every use with a nil check rather than
// calling through a no-op implementation, keeping the uninstrumented
// path to a single branch.
type Recorder interface {
	// Add increments the named counter by delta.
	Add(name string, delta int64)
	// Set sets the named gauge to value.
	Set(name string, value int64)
	// Observe records one value (a duration in nanoseconds, a size in
	// bytes, a count) into the named histogram.
	Observe(name string, value int64)
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic last-value gauge.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(value int64) { g.v.Store(value) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// numBuckets is the fixed bucket count of every Histogram: one bucket
// per bit length of the observed value, so bucket i holds values whose
// 64-bit length is exactly i (upper bound 2^i - 1), and bucket 0 holds
// zero and negative values. Fixed exponential buckets keep snapshots
// deterministic and mergeable without any per-histogram configuration.
const numBuckets = 64

// Histogram is a fixed-bucket exponential histogram of int64 values
// (latencies in nanoseconds, sizes in bytes, ...). The zero value is
// ready to use.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [numBuckets]atomic.Int64
}

// bucketIndex maps a value to its bucket: the number of significant
// bits, with zero and negative values in bucket 0.
func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketBound returns the inclusive upper bound of bucket i
// (2^i - 1; bucket 0 holds v <= 0).
func BucketBound(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return 1<<63 - 1
	}
	return 1<<i - 1
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketIndex(v)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// snapshot captures the histogram's current state. Concurrent Observe
// calls may be torn across count/sum/buckets (each field is atomic,
// the trio is not); quiescent snapshots are exact.
func (h *Histogram) snapshot() HistogramSnapshot {
	out := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			out.Buckets = append(out.Buckets, Bucket{Le: BucketBound(i), Count: n})
		}
	}
	return out
}

// Tee returns a Recorder that forwards every event to both a and b.
// Either may be nil, so Tee(a, nil) is a and Tee(nil, nil) stays the
// nil "don't record" value.
func Tee(a, b Recorder) Recorder {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	return tee{a, b}
}

type tee struct{ a, b Recorder }

func (t tee) Add(name string, delta int64) {
	t.a.Add(name, delta)
	t.b.Add(name, delta)
}

func (t tee) Set(name string, value int64) {
	t.a.Set(name, value)
	t.b.Set(name, value)
}

func (t tee) Observe(name string, value int64) {
	t.a.Observe(name, value)
	t.b.Observe(name, value)
}

// Registry is a named collection of counters, gauges and histograms,
// created on first use. It implements Recorder. The zero value is NOT
// ready to use; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it if needed. Hot paths
// hold the result instead of calling Add on the registry.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Add implements Recorder.
func (r *Registry) Add(name string, delta int64) { r.Counter(name).Add(delta) }

// Set implements Recorder.
func (r *Registry) Set(name string, value int64) { r.Gauge(name).Set(value) }

// Observe implements Recorder.
func (r *Registry) Observe(name string, value int64) { r.Histogram(name).Observe(value) }

// Snapshot captures every metric in the registry. The result is
// deterministic for deterministic recorded values: map keys render
// sorted under encoding/json, and histogram buckets are emitted in
// ascending bound order.
func (r *Registry) Snapshot() Metrics {
	r.mu.Lock()
	// Copy the metric pointers so atomic loads happen outside the lock.
	counters := make(map[string]*Counter, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for name, g := range r.gauges {
		gauges[name] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for name, h := range r.hists {
		hists[name] = h
	}
	r.mu.Unlock()

	m := Metrics{
		Counters:   make(map[string]int64, len(counters)),
		Gauges:     make(map[string]int64, len(gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(hists)),
	}
	for name, c := range counters {
		m.Counters[name] = c.Load()
	}
	for name, g := range gauges {
		m.Gauges[name] = g.Load()
	}
	names := make([]string, 0, len(hists))
	for name := range hists {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m.Histograms[name] = hists[name].snapshot()
	}
	return m
}
