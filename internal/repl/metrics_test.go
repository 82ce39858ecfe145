package repl

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"testing"

	flor "flordb"
	"flordb/internal/metrics"
	"flordb/internal/server"
)

func scrapeMetrics(t *testing.T, api http.Handler) *metrics.RegistrySnapshot {
	t.Helper()
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var snap metrics.RegistrySnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Errorf("/metrics (status %d): %v", rec.Code, err)
	}
	return &snap
}

// metricNames lists every instrument /metrics serves as "kind:name", sorted.
func metricNames(t *testing.T, api http.Handler) []string {
	t.Helper()
	snap := scrapeMetrics(t, api)
	var names []string
	for name := range snap.Histograms {
		names = append(names, "histogram:"+name)
	}
	for name := range snap.Counters {
		names = append(names, "counter:"+name)
	}
	for name := range snap.Gauges {
		names = append(names, "gauge:"+name)
	}
	sort.Strings(names)
	return names
}

// engineMetricNames is what every served session reports: the registrations
// of relation, storage, sqlparse, the session, and internal/server.
var engineMetricNames = []string{
	"counter:admission_rejections",
	"counter:agg_memo_refusals",
	"counter:agg_pages_built",
	"counter:agg_pages_reused",
	"counter:compact_pages_copied",
	"counter:compact_pages_encoded",
	"counter:compaction_failures",
	"counter:compactions",
	"counter:queries_served",
	"gauge:agg_memo_groups",
	"gauge:epoch",
	"gauge:fsyncs_per_commit",
	"gauge:in_flight",
	"gauge:pages_decoded",
	"gauge:pages_pruned",
	"gauge:plan_cache_hit_rate",
	"gauge:plan_cache_hits",
	"gauge:plan_cache_misses",
	"gauge:queued",
	"gauge:repl_segments_shipped",
	"gauge:row_versions",
	"gauge:scan_workers",
	"gauge:snapshot_pins",
	"gauge:wal_commits",
	"gauge:wal_syncs",
	"histogram:compact",
	"histogram:dataframe",
	"histogram:explain",
	"histogram:sql",
}

func goldenNames(extra ...string) []string {
	names := append(append([]string(nil), engineMetricNames...), extra...)
	sort.Strings(names)
	return names
}

// TestMetricNamesGolden pins every instrument name a primary, a follower and
// a promoted follower serve at /metrics (and so at /healthz): adding,
// renaming or dropping a metric is a reviewed diff of this list.
func TestMetricNamesGolden(t *testing.T) {
	e := newPrimaryEnv(t, flor.Options{})
	e.commitN(2)
	wantPrimary := goldenNames("gauge:repl_followers")
	if got := metricNames(t, server.New(e.sess, server.Config{})); !reflect.DeepEqual(got, wantPrimary) {
		t.Errorf("primary serves\n%q\nwant\n%q", got, wantPrimary)
	}

	f, err := StartFollower(context.Background(), e.cfg(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stepUntil(t, f, 2)
	wantFollower := goldenNames("gauge:replica", "gauge:replica_lag_epochs",
		"gauge:replica_last_fetch_unix", "gauge:repl_applied_seq")
	api := server.New(f.Session(), server.Config{Gate: f.Gate})
	if got := metricNames(t, api); !reflect.DeepEqual(got, wantFollower) {
		t.Errorf("follower serves\n%q\nwant\n%q", got, wantFollower)
	}
	if err := f.Promote(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := metricNames(t, api); !reflect.DeepEqual(got, wantFollower) {
		t.Errorf("promoted follower serves\n%q\nwant\n%q", got, wantFollower)
	}
}

// TestMetricsScrapeAcrossPromote scrapes /metrics (and the Session WAL
// getters) in a loop while the replica is promoted and starts committing:
// the WAL gauges report 0 until the promotion's WAL registers over them,
// then count — with no unsynchronized read of the session's WAL pointer
// (run under -race).
func TestMetricsScrapeAcrossPromote(t *testing.T) {
	e := newPrimaryEnv(t, flor.Options{})
	e.commitN(2)
	f, err := StartFollower(context.Background(), e.cfg(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stepUntil(t, f, 2)
	sess := f.Session()
	api := server.New(sess, server.Config{Gate: f.Gate})
	if got := scrapeMetrics(t, api).Gauges["wal_commits"]; got != 0 {
		t.Fatalf("replica wal_commits = %v before promotion, want 0", got)
	}

	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		var last float64
		for {
			select {
			case <-stop:
				return
			default:
			}
			got := scrapeMetrics(t, api).Gauges["wal_commits"]
			if got < last {
				t.Errorf("wal_commits went backwards: %v after %v", got, last)
			}
			last = got
			sess.WALSyncCount()
			sess.WALCommitCount()
		}
	}()
	if err := f.Promote(context.Background()); err != nil {
		t.Fatal(err)
	}
	const commits = 5
	for i := 0; i < commits; i++ {
		sess.Log("post-promote", i)
		if err := sess.Commit("after failover"); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	scraper.Wait()

	if got := scrapeMetrics(t, api).Gauges["wal_commits"]; got != commits {
		t.Fatalf("wal_commits = %v after %d post-promotion commits", got, commits)
	}
	if got := sess.WALCommitCount(); got != commits {
		t.Fatalf("WALCommitCount = %d, want %d", got, commits)
	}
}
