package metrics

import (
	"encoding/json"
	"math/rand"
	"sync"
	"testing"
)

func TestBucketRoundTrip(t *testing.T) {
	// Every value must land in a bucket whose upper bound is >= the value
	// and within the scheme's relative error (1/16 above subBuckets).
	for _, v := range []int64{0, 1, 7, 15, 16, 17, 31, 32, 63, 100, 999,
		12345, 1_000_000, 123_456_789, 1 << 40, 1<<59 + 12345, 1 << 62} {
		i := bucketIndex(v)
		up := bucketUpper(i)
		if up < v && i != numBuckets-1 {
			t.Errorf("value %d: bucket %d upper %d < value", v, i, up)
		}
		if v >= subBuckets && i != numBuckets-1 {
			if float64(up) > float64(v)*(1+1.0/subBuckets)+1 {
				t.Errorf("value %d: upper %d exceeds relative error bound", v, up)
			}
		}
	}
	// Bucket bounds are strictly increasing, so quantiles are monotone.
	for i := 1; i < numBuckets; i++ {
		if bucketUpper(i) <= bucketUpper(i-1) {
			t.Fatalf("bucket %d upper %d <= bucket %d upper %d",
				i, bucketUpper(i), i-1, bucketUpper(i-1))
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v * 1000) // 1µs .. 1ms
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	var bucketTotal int64
	for _, b := range s.Buckets {
		bucketTotal += b.Count
	}
	if bucketTotal != s.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, s.Count)
	}
	p50, p95, p99 := s.P50, s.P95, s.P99
	if !(p50 <= p95 && p95 <= p99 && p99 <= s.Max) {
		t.Fatalf("quantiles not monotone: p50=%d p95=%d p99=%d max=%d", p50, p95, p99, s.Max)
	}
	// The true p50 is 500µs; the bucket scheme may over-report by ~6%.
	if p50 < 500_000 || p50 > 540_000 {
		t.Fatalf("p50 = %d, want ~500000", p50)
	}
	if p99 < 990_000 || p99 > 1_070_000 {
		t.Fatalf("p99 = %d, want ~990000", p99)
	}
	if s.Max != 1_000_000 {
		t.Fatalf("max = %d", s.Max)
	}
	if s.Sum != 500_500_000 { // the sum is exact, not bucketed
		t.Fatalf("sum = %d", s.Sum)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	h := NewHistogram()
	for i := int64(0); i < 100; i++ {
		h.Observe(i * 977)
	}
	s := h.Snapshot()
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back HistSnapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Count != s.Count || back.P99 != s.P99 || len(back.Buckets) != len(s.Buckets) {
		t.Fatalf("round trip lost data: %+v vs %+v", back, s)
	}
	// A reloaded snapshot re-derives the same quantiles from its buckets.
	if p := back.Quantile(0.99); p != s.P99 {
		t.Fatalf("p99 re-derived after reload: %d vs %d", p, s.P99)
	}
}

func TestConcurrentObserveSnapshotsConsistent(t *testing.T) {
	// Snapshots taken while writers hammer the histogram must be internally
	// consistent: count equals the sum of bucket counts, quantiles monotone.
	h := NewHistogram()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
					h.Observe(int64(rng.Intn(10_000_000)))
				}
			}
		}(int64(w))
	}
	for i := 0; i < 200; i++ {
		s := h.Snapshot()
		var total int64
		for _, b := range s.Buckets {
			total += b.Count
		}
		if total != s.Count {
			t.Fatalf("snapshot %d: bucket total %d != count %d", i, total, s.Count)
		}
		if s.P50 > s.P99 {
			t.Fatalf("snapshot %d: p50 %d > p99 %d", i, s.P50, s.P99)
		}
	}
	close(stop)
	wg.Wait()
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Histogram("sql").Observe(1000)
	r.Histogram("sql").Observe(3000)
	r.Counter("served").Add(2)
	r.Gauge("hit_rate", func() float64 { return 0.75 })
	s := r.Snapshot()
	if s.Histograms["sql"].Count != 2 {
		t.Fatalf("histogram count: %+v", s.Histograms["sql"])
	}
	if s.Counters["served"] != 2 {
		t.Fatalf("counter: %+v", s.Counters)
	}
	if s.Gauges["hit_rate"] != 0.75 {
		t.Fatalf("gauge: %+v", s.Gauges)
	}
	// Same-name lookups return the same instrument.
	if r.Histogram("sql") != r.Histogram("sql") || r.Counter("served") != r.Counter("served") {
		t.Fatal("registry lookups are not idempotent")
	}
}
