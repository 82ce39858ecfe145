// Package metrics is the instrumentation layer behind the server's GET
// /metrics endpoint: log-bucketed latency histograms, counters, and polled
// gauges collected in a named Registry that the session owns and every
// layer registers into.
//
// Histograms are HDR-style: values land in logarithmic octaves split into
// 16 linear sub-buckets, bounding the relative quantile error at ~6% while
// keeping the whole histogram a fixed 8 KiB of atomics. Recording is
// lock-free (one atomic add per observation plus sum/max upkeep), so hot
// query paths can observe latencies without contending; snapshots copy the
// buckets and derive every exported figure (count, quantiles) from the
// copy, so a snapshot is always internally consistent — its count equals
// the sum of its bucket counts even while writers race the copy.
package metrics

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

const (
	// subBucketBits fixes the linear resolution inside one octave: 2^4 = 16
	// sub-buckets bound the relative error of a bucket's upper bound at
	// 1/16 ≈ 6.25%.
	subBucketBits = 4
	subBuckets    = 1 << subBucketBits

	// maxExp caps the representable exponent; 2^59 ns ≈ 18 years, far above
	// any latency worth distinguishing. Larger values clamp into the top
	// bucket.
	maxExp     = 59
	numBuckets = (maxExp - subBucketBits + 2) * subBuckets
)

// bucketIndex maps a non-negative value to its bucket. Values below
// subBuckets are exact (one bucket per integer); above, the value's octave
// picks a block of subBuckets linear buckets.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < subBuckets {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // floor(log2 v), >= subBucketBits
	if exp > maxExp {
		return numBuckets - 1
	}
	sub := int(v>>(exp-subBucketBits)) - subBuckets // 0..subBuckets-1
	return (exp-subBucketBits+1)*subBuckets + sub
}

// bucketUpper returns the largest value that lands in bucket i — the value
// quantiles report for observations in the bucket (conservative: quantile
// estimates never under-report).
func bucketUpper(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	block := i >> subBucketBits // >= 1
	sub := int64(i & (subBuckets - 1))
	exp := block + subBucketBits - 1
	width := int64(1) << (exp - subBucketBits)
	return (subBuckets+sub)*width + width - 1
}

// Histogram is a concurrent latency histogram. The zero value is
// NOT ready: use NewHistogram (the bucket array is heap-allocated so unused
// registry slots stay cheap).
type Histogram struct {
	buckets []atomic.Int64 // numBuckets slots
	sum     atomic.Int64
	max     atomic.Int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{buckets: make([]atomic.Int64, numBuckets)}
}

// Observe records one value (typically nanoseconds). Negative values clamp
// to zero. Safe for concurrent use; lock-free.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Snapshot copies the histogram into an immutable, JSON-able form. Count and
// quantiles are derived from the copied buckets, so the snapshot is
// internally consistent even when taken mid-burst: Count always equals the
// sum of Buckets' counts.
func (h *Histogram) Snapshot() *HistSnapshot {
	s := &HistSnapshot{Sum: h.sum.Load(), Max: h.max.Load()}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, Bucket{Upper: bucketUpper(i), Count: n})
			s.Count += n
		}
	}
	s.fillQuantiles()
	return s
}

// Bucket is one non-empty histogram bucket: Count observations at most
// Upper (and greater than the previous bucket's Upper).
type Bucket struct {
	Upper int64 `json:"upper_ns"`
	Count int64 `json:"count"`
}

// HistSnapshot is a point-in-time copy of a Histogram. It serializes with
// its buckets, so a scraped dump can re-derive any quantile.
type HistSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum_ns"`
	Max     int64    `json:"max_ns"`
	P50     int64    `json:"p50_ns"`
	P95     int64    `json:"p95_ns"`
	P99     int64    `json:"p99_ns"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// fillQuantiles recomputes the exported quantile fields from Buckets.
func (s *HistSnapshot) fillQuantiles() {
	s.P50 = s.Quantile(0.50)
	s.P95 = s.Quantile(0.95)
	s.P99 = s.Quantile(0.99)
}

// Quantile returns the value at or below which a fraction p of observations
// fall (reported as the containing bucket's upper bound, so estimates are
// conservative and monotone in p). Zero observations report 0.
func (s *HistSnapshot) Quantile(p float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	// rank is the 1-based index of the target observation.
	rank := int64(p*float64(s.Count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var seen int64
	v := s.Buckets[len(s.Buckets)-1].Upper
	for _, b := range s.Buckets {
		seen += b.Count
		if seen >= rank {
			v = b.Upper
			break
		}
	}
	// The bucket's upper bound can overshoot the true maximum (which is
	// tracked exactly); clamp so quantiles never exceed Max.
	if v > s.Max {
		v = s.Max
	}
	return v
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Registry is a named collection of histograms, counters, and polled
// gauges. Registration is idempotent and mutex-guarded; recording into a
// registered instrument is lock-free. A session's one registry is what the
// live /metrics endpoint serves.
type Registry struct {
	mu       sync.Mutex
	hists    map[string]*Histogram
	counters map[string]*Counter
	gauges   map[string]func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		hists:    make(map[string]*Histogram),
		counters: make(map[string]*Counter),
		gauges:   make(map[string]func() float64),
	}
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// RegisterCounter publishes under name a counter its owner already holds
// and increments — one that exists before any registry does, such as a
// database's. A re-registration under the same name replaces the counter.
func (r *Registry) RegisterCounter(name string, c *Counter) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters[name] = c
}

// Gauge registers a polled gauge: fn is evaluated at snapshot time. A
// re-registration under the same name replaces the function.
func (r *Registry) Gauge(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges[name] = fn
}

// IntGauge registers a polled gauge over an integer source — most engine
// state (epochs, pins, counts) is an int64 behind an atomic or a short lock.
func (r *Registry) IntGauge(name string, fn func() int64) {
	r.Gauge(name, func() float64 { return float64(fn()) })
}

// RegistrySnapshot is the JSON shape of a registry: the /metrics payload
// body.
type RegistrySnapshot struct {
	Histograms map[string]*HistSnapshot `json:"histograms,omitempty"`
	Counters   map[string]int64         `json:"counters,omitempty"`
	Gauges     map[string]float64       `json:"gauges,omitempty"`
}

// Snapshot captures every instrument. Gauge functions run outside the
// registry lock (they may take their own locks — e.g. plan-cache stats).
func (r *Registry) Snapshot() *RegistrySnapshot {
	r.mu.Lock()
	hists := make(map[string]*Histogram, len(r.hists))
	for name, h := range r.hists {
		hists[name] = h
	}
	counters := make(map[string]*Counter, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c
	}
	gauges := make(map[string]func() float64, len(r.gauges))
	for name, fn := range r.gauges {
		gauges[name] = fn
	}
	r.mu.Unlock()

	s := &RegistrySnapshot{
		Histograms: make(map[string]*HistSnapshot, len(hists)),
		Counters:   make(map[string]int64, len(counters)),
		Gauges:     make(map[string]float64, len(gauges)),
	}
	for name, h := range hists {
		s.Histograms[name] = h.Snapshot()
	}
	for name, c := range counters {
		s.Counters[name] = c.Load()
	}
	for name, fn := range gauges {
		s.Gauges[name] = fn()
	}
	return s
}
