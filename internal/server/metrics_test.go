package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"flordb/internal/metrics"
)

// metricsPayload mirrors the /metrics JSON shape.
type metricsPayload struct {
	Histograms map[string]*metrics.HistSnapshot `json:"histograms"`
	Counters   map[string]int64                 `json:"counters"`
	Gauges     map[string]any                   `json:"gauges"`
}

func getMetrics(t *testing.T, srv http.Handler) metricsPayload {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d: %s", rec.Code, rec.Body.String())
	}
	var p metricsPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
		t.Fatalf("/metrics bad JSON: %v: %s", err, rec.Body.String())
	}
	return p
}

func getHealthz(t *testing.T, srv http.Handler) map[string]any {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var payload map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Errorf("/healthz (status %d) bad JSON: %v: %s", rec.Code, err, rec.Body.String())
	}
	return payload
}

// TestHealthzIsMetricsWithoutHistograms: /healthz serves ok, project, and
// exactly the counters and gauges of /metrics — same names, and on a
// quiescent server the same values.
func TestHealthzIsMetricsWithoutHistograms(t *testing.T) {
	srv := New(testSession(t), Config{})
	for i := 0; i < 3; i++ {
		if code, _ := getJSON(t, srv, "/sql?q=SELECT+count(*)+AS+n+FROM+logs"); code != http.StatusOK {
			t.Fatalf("sql status = %d", code)
		}
	}
	m, hz := getMetrics(t, srv), getHealthz(t, srv)
	if hz["ok"] != true || hz["project"] != "api" {
		t.Fatalf("healthz: %v", hz)
	}
	want := make(map[string]float64, len(m.Counters)+len(m.Gauges))
	for name, v := range m.Counters {
		want[name] = float64(v)
	}
	for name, v := range m.Gauges {
		want[name] = v.(float64)
	}
	if want["queries_served"] != 3 {
		t.Fatalf("queries_served = %v, want 3", want["queries_served"])
	}
	if len(hz) != len(want)+2 {
		t.Errorf("/healthz has %d keys, /metrics has %d counters+gauges", len(hz), len(want))
	}
	for name, v := range want {
		if got, ok := hz[name].(float64); !ok || got != v {
			t.Errorf("/healthz %s = %v, /metrics says %v", name, hz[name], v)
		}
	}
}

func TestMetricsEndpointServesRouteHistograms(t *testing.T) {
	srv := New(testSession(t), Config{})
	for i := 0; i < 5; i++ {
		if code, _ := getJSON(t, srv, "/sql?q=SELECT+count(*)+AS+n+FROM+logs"); code != http.StatusOK {
			t.Fatalf("sql status = %d", code)
		}
	}
	p := getMetrics(t, srv)
	h := p.Histograms["sql"]
	if h == nil || h.Count != 5 {
		t.Fatalf("sql histogram = %+v, want count 5", h)
	}
	if h.P50 > h.P99 || h.P99 > h.Max {
		t.Fatalf("quantiles not monotone: %+v", h)
	}
	if p.Counters["queries_served"] != 5 {
		t.Fatalf("queries_served = %d", p.Counters["queries_served"])
	}
	if _, ok := p.Counters["admission_rejections"]; !ok {
		t.Fatal("admission_rejections missing")
	}
	for _, g := range []string{"plan_cache_hit_rate", "fsyncs_per_commit", "snapshot_pins",
		"pages_pruned", "pages_decoded", "epoch", "row_versions", "live_rows"} {
		if _, ok := p.Gauges[g]; !ok {
			t.Fatalf("gauge %q missing from /metrics: %v", g, p.Gauges)
		}
	}
	// 5 identical query texts: 1 miss then 4 hits.
	if rate := p.Gauges["plan_cache_hit_rate"].(float64); rate < 0.5 {
		t.Fatalf("plan_cache_hit_rate = %v, want >= 0.5 after repeated query", rate)
	}
}

func TestHealthzReportsPlanCacheHitRate(t *testing.T) {
	srv := New(testSession(t), Config{})
	for i := 0; i < 4; i++ {
		if code, _ := getJSON(t, srv, "/sql?q=SELECT+count(*)+AS+n+FROM+logs"); code != http.StatusOK {
			t.Fatalf("sql status = %d", code)
		}
	}
	payload := getHealthz(t, srv)
	rate, ok := payload["plan_cache_hit_rate"].(float64)
	if !ok {
		t.Fatalf("plan_cache_hit_rate missing from /healthz: %v", payload)
	}
	if rate <= 0 || rate >= 1 {
		t.Fatalf("plan_cache_hit_rate = %v, want in (0,1) after 4 runs of one text", rate)
	}
	if _, ok := payload["plan_cache_hits"]; !ok {
		t.Fatalf("plan_cache_hits missing from /healthz: %v", payload)
	}
}

// TestConcurrentMetricsScrapeUnderSQLTraffic hammers /metrics while SQL
// traffic runs, asserting every scraped histogram snapshot is internally
// consistent: its count equals the sum of its bucket counts (snapshots copy
// buckets first and derive the count from the copy) and quantiles are
// monotone. Runs under -race in the race-stress CI job.
func TestConcurrentMetricsScrapeUnderSQLTraffic(t *testing.T) {
	sess := testSession(t)
	srv := New(sess, Config{})
	const (
		queryWorkers  = 4
		queriesPerW   = 150
		scrapeWorkers = 2
	)
	var queries, scrapers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < queryWorkers; w++ {
		queries.Add(1)
		go func() {
			defer queries.Done()
			for i := 0; i < queriesPerW; i++ {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
					"/sql?q=SELECT+count(*)+AS+n+FROM+logs", nil))
				if rec.Code != http.StatusOK {
					t.Errorf("sql status = %d: %s", rec.Code, rec.Body.String())
					return
				}
			}
		}()
	}
	scraped := make([][]*metrics.HistSnapshot, scrapeWorkers)
	for w := 0; w < scrapeWorkers; w++ {
		scrapers.Add(1)
		go func(idx int) {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				p := getMetrics(t, srv)
				if h := p.Histograms["sql"]; h != nil {
					scraped[idx] = append(scraped[idx], h)
				}
				if hz := getHealthz(t, srv); hz["ok"] != true {
					t.Errorf("/healthz under traffic: %v", hz)
					return
				}
			}
		}(w)
	}
	queries.Wait()
	close(stop)
	scrapers.Wait()

	total := 0
	for _, snaps := range scraped {
		for _, h := range snaps {
			total++
			var bucketSum int64
			for _, b := range h.Buckets {
				bucketSum += b.Count
			}
			if bucketSum != h.Count {
				t.Fatalf("scrape inconsistent: bucket sum %d != count %d", bucketSum, h.Count)
			}
			if h.P50 > h.P99 {
				t.Fatalf("scrape inconsistent: p50 %d > p99 %d", h.P50, h.P99)
			}
		}
	}
	if total == 0 {
		t.Fatal("no /metrics scrapes completed during traffic")
	}
	// The final quiesced scrape must account for every query exactly.
	final := getMetrics(t, srv)
	if got := final.Histograms["sql"].Count; got != int64(queryWorkers*queriesPerW) {
		t.Fatalf("final sql histogram count = %d, want %d", got, queryWorkers*queriesPerW)
	}
}
