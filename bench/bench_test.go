package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"regexp"
	"strings"
	"testing"
)

// testConfig is a run small enough for tier-1: 1 % of every count, two or
// three blocks, data on tmpfs where there is one.
func testConfig(t *testing.T, workload string, trace bool) config {
	root := defaultDataRoot()
	if root != "/dev/shm" {
		root = t.TempDir()
	}
	return config{workload: workload, seed: 7, seconds: 4, scale: 0.01, trace: trace,
		dataRoot: root, outDir: t.TempDir()}
}

func mustRun(t *testing.T, cfg config) *result {
	t.Helper()
	r, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct {
		t.Fatalf("%s: incorrect: %v", cfg.workload, r.Errors)
	}
	return r
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestDeclaredMetrics: every workload emits every metric BENCHMARK.json
// declares, with the declared unit, and nothing undeclared.
func TestDeclaredMetrics(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d in BENCHMARK.json, -seconds defaults to %d", bf.RunSeconds, defaultSeconds)
	}
	endToEnd, layers := map[string]string{}, map[string]string{}
	for _, m := range bf.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		layers[m.Name] = m.Unit
	}
	var declared, defined []string
	for _, w := range bf.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		defined = append(defined, w.name)
	}
	if strings.Join(declared, ",") != strings.Join(defined, ",") {
		t.Fatalf("workloads: BENCHMARK.json has %v, the benchmark %v", declared, defined)
	}
	check := func(kind, workload string, got map[string]metric, want map[string]string) {
		for name, m := range got {
			if !nameRE.MatchString(name) {
				t.Errorf("%s: %s metric %q is not a legal name", workload, kind, name)
			}
			if unit, ok := want[name]; !ok {
				t.Errorf("%s: emits undeclared %s metric %q", workload, kind, name)
			} else if unit != m.Unit {
				t.Errorf("%s: %s is in %q, declared in %q", workload, name, m.Unit, unit)
			}
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: %s is %v", workload, name, m.Value)
			}
		}
		for name := range want {
			if _, ok := got[name]; !ok {
				t.Errorf("%s: does not emit declared %s metric %q", workload, kind, name)
			}
		}
	}
	for _, w := range workloads {
		r := mustRun(t, testConfig(t, w.name, false))
		check("end-to-end", w.name, r.EndToEnd, endToEnd)
		for name, m := range r.EndToEnd {
			if m.Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", w.name, name)
			}
		}
		traced := mustRun(t, testConfig(t, w.name, true))
		check("per-layer", w.name, traced.PerLayer, layers)
		if len(traced.line().Metrics) != len(layers) || len(r.line().Metrics) != len(endToEnd) {
			t.Errorf("%s: the result line must carry per-layer metrics when traced and end-to-end ones otherwise", w.name)
		}
	}
}

// TestExactCountsRepeat: with one client and no timers, two runs with one
// seed do exactly the same work. Bytes written repeat only nearly: WAL
// records carry wall-clock stamps whose text length varies.
func TestExactCountsRepeat(t *testing.T) {
	exact := []string{"ops", "runs_committed", "work_units", "payload_bytes", "live_log_rows",
		"wal_syncs", "wal_commits", "pages_decoded", "pages_pruned", "http_bytes"}
	for _, name := range []string{"train-ingest", "dashboard-refresh", "cold-open"} {
		a, b := mustRun(t, testConfig(t, name, false)), mustRun(t, testConfig(t, name, false))
		for _, k := range exact {
			if a.Counts[k] != b.Counts[k] {
				t.Errorf("%s: %s differs between two runs with one seed: %d, %d", name, k, a.Counts[k], b.Counts[k])
			}
		}
		for i, blk := range a.Blocks {
			if blk.Ops != a.Blocks[0].Ops || blk.Ops != b.Blocks[i].Ops {
				t.Errorf("%s: block %d has %d ops, block 0 has %d: every block must do the same work", name, i, blk.Ops, a.Blocks[0].Ops)
			}
		}
		wa, wb := float64(a.Counts["bytes_written"]), float64(b.Counts["bytes_written"])
		if math.Abs(wa-wb)/wa > 0.005 {
			t.Errorf("%s: bytes_written differs by more than 0.5%%: %v, %v", name, wa, wb)
		}
		if a.Digest != b.Digest {
			t.Errorf("%s: one seed gave two input digests", name)
		}
		other := testConfig(t, name, false)
		other.seed++
		if c := mustRun(t, other); c.Digest == a.Digest || c.Counts["payload_bytes"] == a.Counts["payload_bytes"] {
			t.Errorf("%s: another seed gave the same inputs", name)
		}
	}
	if a := mustRun(t, testConfig(t, "train-ingest", false)); a.Counts["wal_syncs"] == 0 {
		t.Error("train-ingest: no fsync was counted; the measured phase must run with the product's flush policy")
	}
}

// lastLine decodes the final line a run printed.
func lastLine(t *testing.T, out []byte) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var l resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &l); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, lines[len(lines)-1])
	}
	return l
}

// TestCommandLine drives run() the way the driver does, and shows that a
// failing oracle check makes the command exit non-zero after printing.
func TestCommandLine(t *testing.T) {
	cfg := testConfig(t, "", false)
	args := []string{"--workload", "train-ingest", "--seed", "3", "--seconds", "4", "--trace", "0",
		"-scale", "0.01", "-dir", cfg.dataRoot, "-out", cfg.outDir}
	var out bytes.Buffer
	if code := run(args, &out, io.Discard); code != 0 {
		t.Fatalf("exit code %d\n%s", code, out.String())
	}
	if l := lastLine(t, out.Bytes()); !l.Correct || l.Failed != 0 || l.Attempted < 1 || len(l.Metrics) == 0 {
		t.Fatalf("unexpected result line: %+v", l)
	}

	out.Reset()
	if code := run(append(args, "-break-oracle"), &out, io.Discard); code == 0 {
		t.Fatal("a failed oracle check must exit non-zero")
	}
	if l := lastLine(t, out.Bytes()); l.Correct || l.Failed == 0 || l.Metrics["ok_ratio"].Value >= 1 {
		t.Fatalf("a failed oracle check must show in the result line: %+v", l)
	}

	traced := normalizeArgs([]string{"--trace", "1", "--seed", "2"})
	if strings.Join(traced, " ") != "-trace=1 --seed 2" {
		t.Fatalf("normalizeArgs: %v", traced)
	}
}

// TestBestBlock: a timing metric is the best block's value, the highest for
// work_per_s.
func TestBestBlock(t *testing.T) {
	blocks := []blockStat{{P50Ms: 3, WorkPerS: 10}, {P50Ms: 2, WorkPerS: 30}, {P50Ms: 4, WorkPerS: 20}}
	if got := bestBlock(blocks, func(b blockStat) float64 { return b.P50Ms }); got != 2 {
		t.Errorf("best op_p50_ms: got %v, want 2", got)
	}
	if got := -bestBlock(blocks, func(b blockStat) float64 { return -b.WorkPerS }); got != 30 {
		t.Errorf("best work_per_s: got %v, want 30", got)
	}
}

// TestQuartiles pins the quartile definition to Python's
// statistics.quantiles(values, n=4).
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 4, 7, 11, 16, 22, 29, 37, 46})
	for i, pair := range [][2]float64{{q1, 3.5}, {q2, 13.5}, {q3, 31}} {
		if math.Abs(pair[0]-pair[1]) > 1e-9 {
			t.Errorf("quartile %d: got %v, want %v", i+1, pair[0], pair[1])
		}
	}
}

// TestSpanSelfTime: self time is a span's duration minus its children's, and
// an op's own spans take precedence over the probe's.
func TestSpanSelfTime(t *testing.T) {
	tr := &tracer{}
	tk := tr.track("t")
	tk.Spans = []span{
		{Name: "op", Start: 0, End: 10e6, Parent: -1, Op: 0},
		{Name: "flor.commit", Start: 1e6, End: 4e6, Parent: 0, Op: 0},
		{Name: "flor.commit", Start: 0, End: 100e6, Parent: -1, Op: -1},
	}
	st := tr.stats()
	if got := st["op"].selfMs; got != 7 {
		t.Errorf("op self time: got %v ms, want 7", got)
	}
	if c := st["flor.commit"]; c.count != 1 || c.totalMs != 3 || !c.measured {
		t.Errorf("flor.commit: got %+v, want the op's one 3 ms span", *c)
	}
	if names := sortedKeys(st); strings.Join(names, ",") != "flor.commit,op" {
		t.Errorf("span names: %v", names)
	}
}
