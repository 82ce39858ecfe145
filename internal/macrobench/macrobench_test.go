package macrobench

import (
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// runShort runs a scenario with a tiny measured window — enough for every
// worker class to complete ops on one core without making `go test` slow.
func runShort(t *testing.T, name string, d time.Duration) *Result {
	t.Helper()
	sc, ok := Lookup(name)
	if !ok {
		t.Fatalf("unknown scenario %q", name)
	}
	res, err := sc.Run(Config{Duration: d, Seed: 7, Dir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatalf("run %s: %v", name, err)
	}
	return res
}

// checkClass asserts an op class completed work and reports a consistent
// histogram.
func checkClass(t *testing.T, res *Result, class string) {
	t.Helper()
	c := res.Classes[class]
	if c == nil {
		t.Fatalf("%s: class %q missing: have %v", res.Scenario, class, res.ClassNames())
	}
	if c.Ops == 0 {
		t.Fatalf("%s/%s: zero ops (errors=%d sheds=%d)", res.Scenario, class, c.Errors, c.Sheds)
	}
	if c.Errors > 0 {
		t.Fatalf("%s/%s: %d errors", res.Scenario, class, c.Errors)
	}
	if c.Latency.Count != c.Ops {
		t.Fatalf("%s/%s: latency count %d != ops %d", res.Scenario, class, c.Latency.Count, c.Ops)
	}
	var sum int64
	for _, b := range c.Latency.Buckets {
		sum += b.Count
	}
	if sum != c.Latency.Count {
		t.Fatalf("%s/%s: bucket sum %d != count %d", res.Scenario, class, sum, c.Latency.Count)
	}
	if c.Latency.P50 > c.Latency.P99 {
		t.Fatalf("%s/%s: p50 %d > p99 %d", res.Scenario, class, c.Latency.P50, c.Latency.P99)
	}
	if c.OpsPerSec <= 0 {
		t.Fatalf("%s/%s: ops_per_sec = %v", res.Scenario, class, c.OpsPerSec)
	}
}

func TestLogHeavyScenario(t *testing.T) {
	res := runShort(t, "log-heavy", 300*time.Millisecond)
	checkClass(t, res, ClassLogCommit)
	checkClass(t, res, ClassPointRead)
	if res.Resources.WALCommits == 0 {
		t.Fatal("no WAL commits recorded")
	}
	if res.Resources.FsyncsPerCommit <= 0 {
		t.Fatalf("fsyncs_per_commit = %v", res.Resources.FsyncsPerCommit)
	}
	if res.Resources.SnapshotPins != 0 {
		t.Fatalf("leaked %d snapshot pins", res.Resources.SnapshotPins)
	}
}

func TestHindsightDashboardScenarioLiveRegistry(t *testing.T) {
	sc, ok := Lookup("hindsight-dashboard")
	if !ok {
		t.Fatal("scenario missing")
	}
	res, snap, err := sc.run(Config{Duration: 300 * time.Millisecond, Seed: 7, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range []string{ClassLogCommit, ClassPointRead, ClassScanAgg, ClassHTTPRead} {
		checkClass(t, res, class)
	}
	// The session's registry mirrors the class histograms live (what /metrics
	// serves mid-run) next to the API server's own route histogram.
	h := snap.Histograms["macro:"+ClassHTTPRead]
	if h == nil || h.Count != res.Classes[ClassHTTPRead].Ops {
		t.Fatalf("registry mirror = %+v, want count %d", h, res.Classes[ClassHTTPRead].Ops)
	}
	if sql := snap.Histograms["sql"]; sql == nil || sql.Count == 0 {
		t.Fatalf("server route histogram missing from the session registry: %v", snap.Histograms["sql"])
	}
}

func TestAsOfTimetravelScenario(t *testing.T) {
	res := runShort(t, "asof-timetravel", 300*time.Millisecond)
	checkClass(t, res, ClassAsOfRead)
	checkClass(t, res, ClassLogCommit)
}

func TestCompactionChurnScenario(t *testing.T) {
	res := runShort(t, "compaction-churn", 500*time.Millisecond)
	checkClass(t, res, ClassLogCommit)
	checkClass(t, res, ClassScanAgg)
	if res.Resources.CompactRuns == 0 {
		t.Fatal("background compactor never ran")
	}
	if res.Resources.GCRuns == 0 {
		t.Fatal("background epoch GC never ran")
	}
}

func TestReplicatedReadsScenario(t *testing.T) {
	res := runShort(t, "replicated-reads", 500*time.Millisecond)
	checkClass(t, res, ClassLogCommit)
	c := res.Classes[ClassReplicaRead]
	if c == nil {
		t.Fatalf("replica-read class missing: %v", res.ClassNames())
	}
	// A briefly-stale follower sheds instead of erroring; require progress
	// in some form plus zero hard errors.
	if c.Ops+c.Sheds == 0 {
		t.Fatal("replica readers made no attempts")
	}
	if c.Errors > 0 {
		t.Fatalf("replica reads errored %d times", c.Errors)
	}
	if res.Resources.ReplicaApplied == 0 {
		t.Fatal("follower applied no segments")
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	res := runShort(t, "log-heavy", 200*time.Millisecond)
	f := NewSnapshotFile()
	f.Add(res)
	path := filepath.Join(t.TempDir(), "MACRO.json")
	if err := f.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r := got.Scenarios["log-heavy"]
	if r == nil {
		t.Fatalf("scenario missing after round trip: %+v", got)
	}
	if r.TotalOps != res.TotalOps {
		t.Fatalf("total ops %d != %d", r.TotalOps, res.TotalOps)
	}
	lat := r.Classes[ClassLogCommit].Latency
	if lat.P99 != res.Classes[ClassLogCommit].Latency.P99 {
		t.Fatal("p99 changed across serialization")
	}
	if len(lat.Buckets) == 0 {
		t.Fatal("buckets dropped in serialization")
	}
}

func TestRenderIsDeterministicAndComplete(t *testing.T) {
	res := runShort(t, "log-heavy", 200*time.Millisecond)
	out := res.RenderString()
	if out != res.RenderString() {
		t.Fatal("render not deterministic")
	}
	for _, want := range []string{"scenario log-heavy", ClassLogCommit, ClassPointRead, "p50", "p99", "fsyncs/commit"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestLookupAndNames(t *testing.T) {
	names := Names()
	if len(names) != 5 {
		t.Fatalf("want 5 built-in scenarios, got %v", names)
	}
	for _, n := range names {
		sc, ok := Lookup(n)
		if !ok || sc.Name != n {
			t.Fatalf("lookup %q failed", n)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("lookup of unknown scenario succeeded")
	}
}
