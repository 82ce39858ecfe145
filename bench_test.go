// Benchmark harness for the FlorDB reproduction. One benchmark per figure
// and per performance claim in DESIGN.md's experiment index (F2-F6, C1-C10)
// plus the ablations of §6. Run:
//
//	go test -bench=. -benchmem
//
// EXPERIMENTS.md records the measured shapes against the paper's claims.
package flor_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	flor "flordb"
	"flordb/internal/build"
	"flordb/internal/docsim"
	"flordb/internal/hostlib"
	"flordb/internal/record"
	"flordb/internal/relation"
	"flordb/internal/repl"
	"flordb/internal/replay"
	"flordb/internal/script"
	"flordb/internal/sqlparse"
	"flordb/internal/storage"
)

// benchState builds a session + host state sized for benching.
func benchState(b *testing.B, policy replay.CheckpointPolicy) (*flor.Session, *hostlib.State) {
	b.Helper()
	sess, err := flor.OpenMemory("bench", flor.Options{Policy: policy})
	if err != nil {
		b.Fatal(err)
	}
	st := hostlib.NewState(docsim.Config{
		NumDocs: 10, MinPages: 4, MaxPages: 8, OCRFraction: 0.4, Seed: 11,
	}, 16)
	hostlib.Register(sess, st)
	hostlib.RegisterFlorQueries(sess, sess)
	return sess, st
}

// ---------------------------------------------------------------------------
// F2 / F4 — Figure 2 & 4: pipeline build + dataframe over the pipeline logs.
// ---------------------------------------------------------------------------

func BenchmarkFig2PipelineDataframe(b *testing.B) {
	sess, _ := benchState(b, replay.EveryN{N: 1})
	mf, err := build.Parse("featurize: src\n\tflow featurize.flow\ntrain: featurize\n\tflow train.flow\ninfer: train\n\tflow infer.flow\n")
	if err != nil {
		b.Fatal(err)
	}
	scripts := map[string]string{
		"featurize.flow": hostlib.FeaturizeSrc,
		"train.flow":     hostlib.TrainSrc,
		"infer.flow":     hostlib.InferSrc,
	}
	runner := build.NewRunner(mf, func(rule build.Rule) error {
		for _, c := range rule.Cmds {
			if len(c) > 5 && c[:5] == "flow " {
				if err := sess.RunScript(c[5:], scripts[c[5:]]); err != nil {
					return err
				}
			}
		}
		return nil
	}, 1)
	if err := runner.Run("infer"); err != nil {
		b.Fatal(err)
	}
	if err := sess.Commit("bench"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		df, err := sess.Dataframe("acc", "recall")
		if err != nil || df.Len() == 0 {
			b.Fatalf("df: %v %d", err, df.Len())
		}
	}
}

// ---------------------------------------------------------------------------
// F3 — Figure 3: featurization logging throughput (feature-store role).
// ---------------------------------------------------------------------------

func BenchmarkFig3Featurize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sess, _ := benchState(b, replay.Never{})
		b.StartTimer()
		if err := sess.RunScript("featurize.flow", hostlib.FeaturizeSrc); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// F5 — Figure 5: instrumented training run (recording path end to end).
// ---------------------------------------------------------------------------

func BenchmarkFig5Training(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sess, _ := benchState(b, replay.EveryN{N: 1})
		b.StartTimer()
		if err := sess.RunScript("train.flow", hostlib.TrainSrc); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// F6 — Figure 6: feedback write path (save_colors) throughput.
// ---------------------------------------------------------------------------

func BenchmarkFig6Feedback(b *testing.B) {
	sess, _ := benchState(b, replay.Never{})
	colorScript := `colors = [0, 0, 1, 1]
with flor.iteration("document", nil, "doc000.pdf") {
    for i in flor.loop("page", range(4)) {
        flor.log("page_color", colors[i])
    }
}
`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sess.RunScript("webui.flow", colorScript); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// C1 — recording overhead: the same training loop uninstrumented (NopHooks),
// under flor recording, and recording+WAL. Paper claim: low overhead.
// ---------------------------------------------------------------------------

func benchTrainingWith(b *testing.B, mk func() (interpRunner, func())) {
	b.Helper()
	f, err := script.Parse("train.flow", hostlib.TrainSrc)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		in, cleanup := mk()
		b.StartTimer()
		if err := in.Run(f); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		cleanup()
		b.StartTimer()
	}
}

type interpRunner interface{ Run(f *script.File) error }

func benchHostState() *hostlib.State {
	return hostlib.NewState(docsim.Config{
		NumDocs: 10, MinPages: 4, MaxPages: 8, OCRFraction: 0.4, Seed: 11,
	}, 16)
}

func BenchmarkC1RecordOverheadOff(b *testing.B) {
	st := heavyHostState()
	benchTrainingWith(b, func() (interpRunner, func()) {
		in := script.NewInterp(script.NopHooks{}, nil)
		hostlib.Register(in, st)
		return in, func() {}
	})
}

func BenchmarkC1RecordOverheadFlor(b *testing.B) {
	st := heavyHostState()
	benchTrainingWith(b, func() (interpRunner, func()) {
		sess, err := flor.OpenMemory("bench", flor.Options{Policy: replay.EveryN{N: 1}})
		if err != nil {
			b.Fatal(err)
		}
		in := script.NewInterp(sessRecorder(sess), nil)
		hostlib.Register(in, st)
		return in, func() { sess.Close() }
	})
}

func BenchmarkC1RecordOverheadFlorWAL(b *testing.B) {
	st := heavyHostState()
	dir := b.TempDir()
	n := 0
	benchTrainingWith(b, func() (interpRunner, func()) {
		n++
		sess, err := flor.Open(fmt.Sprintf("%s/run%d", dir, n), "bench", flor.Options{Policy: replay.EveryN{N: 1}, NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		in := script.NewInterp(sessRecorder(sess), nil)
		hostlib.Register(in, st)
		return in, func() { sess.Close() }
	})
}

// sessRecorder exposes the session's recorder for direct interpreter use in
// benchmarks (bypassing RunScript's staging overhead so C1 isolates hook cost).
func sessRecorder(s *flor.Session) script.FlorHooks { return s.Hooks() }

// ---------------------------------------------------------------------------
// C2 — hindsight replay vs full re-execution. The paper's core claim: adding
// a log statement to history costs far less than re-running history.
// ---------------------------------------------------------------------------

// heavyHostState builds a corpus large enough that training work dominates
// bookkeeping — the regime the paper's replay-vs-rerun claim targets.
func heavyHostState() *hostlib.State {
	return hostlib.NewState(docsim.Config{
		NumDocs: 60, MinPages: 5, MaxPages: 10, OCRFraction: 0.4, Seed: 11,
	}, 32)
}

// setupHindsightBench records `versions` training runs on the heavy corpus
// and returns the session (checkpoints every epoch).
func setupHindsightBench(b *testing.B, versions int) (*flor.Session, *hostlib.State) {
	b.Helper()
	sess, err := flor.OpenMemory("bench", flor.Options{Policy: replay.EveryN{N: 1}})
	if err != nil {
		b.Fatal(err)
	}
	st := heavyHostState()
	hostlib.Register(sess, st)
	hostlib.RegisterFlorQueries(sess, sess)
	for v := 0; v < versions; v++ {
		if err := sess.RunScript("train.flow", hostlib.TrainSrc); err != nil {
			b.Fatal(err)
		}
		if err := sess.Commit("run"); err != nil {
			b.Fatal(err)
		}
	}
	return sess, st
}

func BenchmarkC2HindsightReplayCoarse(b *testing.B) {
	sess, _ := setupHindsightBench(b, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reports, err := sess.Hindsight("train.flow", hostlib.TrainSrcWithNorm, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, rep := range reports {
			if rep.Err != nil {
				b.Fatal(rep.Err)
			}
		}
	}
}

func BenchmarkC2FullReExecutionBaseline(b *testing.B) {
	// The baseline the paper's replay avoids: re-running every version in
	// full with the new logging statement.
	st := heavyHostState()
	f, err := script.Parse("train.flow", hostlib.TrainSrcWithNorm)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v := 0; v < 3; v++ {
			in := script.NewInterp(script.NopHooks{}, nil)
			hostlib.Register(in, st)
			if err := in.Run(f); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkC2HindsightTargetedLastEpoch(b *testing.B) {
	sess, _ := setupHindsightBench(b, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Hindsight("train.flow", hostlib.TrainSrcWithNorm, []int{4}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// C3 — parallel replay speedup across versions.
// ---------------------------------------------------------------------------

func benchParallelReplay(b *testing.B, workers int) {
	sess, _ := setupHindsightBench(b, 6)
	versions, err := sess.Versions("train.flow")
	if err != nil {
		b.Fatal(err)
	}
	snap := sess.Database().Snapshot()
	view, err := sess.Tables().At(snap)
	if err != nil {
		b.Fatal(err)
	}
	ctxID := replay.MaxCtxID(view)
	st := heavyHostState()
	d := &replay.Driver{
		Repo: sess.Repo(), Tables: sess.Tables(), View: view, ProjID: sess.ProjID,
		NextCtx: func() int64 { return atomic.AddInt64(&ctxID, 1) },
		Workers: workers,
		Setup:   func(in *script.Interp) { hostlib.Register(in, st) },
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reports, err := d.Hindsight("train.flow", hostlib.TrainSrcWithNorm, versions, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, rep := range reports {
			if rep.Err != nil {
				b.Fatal(rep.Err)
			}
		}
	}
}

func BenchmarkC3ParallelReplay1Worker(b *testing.B)  { benchParallelReplay(b, 1) }
func BenchmarkC3ParallelReplay2Workers(b *testing.B) { benchParallelReplay(b, 2) }
func BenchmarkC3ParallelReplay4Workers(b *testing.B) { benchParallelReplay(b, 4) }

// ---------------------------------------------------------------------------
// C4 — cross-version statement propagation cost (diff + inject only).
// ---------------------------------------------------------------------------

func BenchmarkC4Propagation(b *testing.B) {
	oldF, err := script.Parse("train.flow", hostlib.TrainSrc)
	if err != nil {
		b.Fatal(err)
	}
	newF, err := script.Parse("train.flow", hostlib.TrainSrcWithNorm)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merged, res := script.Propagate(oldF, newF)
		if res.Injected != 2 || merged == nil {
			b.Fatalf("injected = %d", res.Injected)
		}
	}
}

// ---------------------------------------------------------------------------
// C5 — dataframe pivot scaling with history size.
// ---------------------------------------------------------------------------

func benchDataframeScale(b *testing.B, runs int) {
	sess, err := flor.OpenMemory("bench", flor.Options{})
	if err != nil {
		b.Fatal(err)
	}
	sess.SetFilename("train.go")
	for r := 0; r < runs; r++ {
		for it := sess.Loop("epoch", 10); it.Next(); {
			sess.Log("acc", 0.5+float64(it.Index())/100)
			sess.Log("recall", 0.4+float64(it.Index())/100)
			sess.Log("loss", 1.0/float64(it.Index()+1))
		}
		if err := sess.Commit(""); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		df, err := sess.Dataframe("acc", "recall")
		if err != nil || df.Len() != runs*10 {
			b.Fatalf("df: %v len=%d", err, df.Len())
		}
	}
}

func BenchmarkC5Dataframe10Runs(b *testing.B)  { benchDataframeScale(b, 10) }
func BenchmarkC5Dataframe50Runs(b *testing.B)  { benchDataframeScale(b, 50) }
func BenchmarkC5Dataframe200Runs(b *testing.B) { benchDataframeScale(b, 200) }

func BenchmarkC5SQLFilterPushdown(b *testing.B) {
	sess, err := flor.OpenMemory("bench", flor.Options{})
	if err != nil {
		b.Fatal(err)
	}
	sess.SetFilename("train.go")
	for r := 0; r < 50; r++ {
		for it := sess.Loop("epoch", 10); it.Next(); {
			sess.Log("acc", 0.9)
		}
		sess.Commit("")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sess.SQL("SELECT max(cast_float(value)) AS best FROM logs WHERE value_name = 'acc' AND tstamp > 40")
		if err != nil || len(res.Rows) != 1 {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// C6 — flor.commit durability cost (WAL flush + repo snapshot).
// ---------------------------------------------------------------------------

func benchCommit(b *testing.B, batch int, noSync bool) {
	dir := b.TempDir()
	sess, err := flor.Open(dir, "bench", flor.Options{NoSync: noSync})
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Close()
	sess.SetFilename("app.go")
	sess.StageFile("app.flow", "x = 1\n")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < batch; j++ {
			sess.Log("v", j)
		}
		if err := sess.Commit(""); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkC6Commit1Log(b *testing.B)          { benchCommit(b, 1, false) }
func BenchmarkC6Commit100Logs(b *testing.B)       { benchCommit(b, 100, false) }
func BenchmarkC6Commit100LogsNoSync(b *testing.B) { benchCommit(b, 100, true) }

// ---------------------------------------------------------------------------
// C7 — incremental build: full vs cached vs dirty-subtree rebuild.
// ---------------------------------------------------------------------------

const benchMakefile = `
a: src1
	cmd
b: a
	cmd
c: a
	cmd
d: b c src2
	cmd
e: d
	cmd
`

func benchBuild(b *testing.B, dirty string) {
	mf, err := build.Parse(benchMakefile)
	if err != nil {
		b.Fatal(err)
	}
	var work atomic.Int64 // independent targets (b, c) execute concurrently
	runner := build.NewRunner(mf, func(rule build.Rule) error {
		local := int64(0)
		for i := int64(0); i < 10000; i++ {
			local += i
		}
		work.Add(local)
		return nil
	}, 2)
	if err := runner.Run("e"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dirty != "" {
			if err := runner.Touch(dirty); err != nil {
				b.Fatal(err)
			}
		}
		if err := runner.Run("e"); err != nil {
			b.Fatal(err)
		}
	}
	_ = work.Load()
}

func BenchmarkC7BuildAllCached(b *testing.B) { benchBuild(b, "") }
func BenchmarkC7BuildDirtyLeaf(b *testing.B) { benchBuild(b, "src2") }
func BenchmarkC7BuildDirtyRoot(b *testing.B) { benchBuild(b, "src1") }

// ---------------------------------------------------------------------------
// C8/C9/C10 — query planner: the hash-index lookup, the zone-pruned range
// scan and join pushdown vs the pre-planner full-scan executor, over a
// 100k-row logs table (1000 versions x 100 value names). The *ScanBaseline variants run the identical
// statement through sqlparse.ExecuteScan — the pre-planner behavior — so the
// speedup is measured in-tree; EXPERIMENTS.md records the ratios.
// ---------------------------------------------------------------------------

const (
	benchQueryTstamps = 1000
	benchQueryNames   = 100 // 100k logs rows total
)

// benchQueryDB builds the planner benchmark database: logs with the default
// indexes from record.CreateTables, plus one ts2vid row per version.
func benchQueryDB(b *testing.B) *relation.Database {
	b.Helper()
	db := relation.NewDatabase()
	tables, err := record.CreateTables(db)
	if err != nil {
		b.Fatal(err)
	}
	for ts := 0; ts < benchQueryTstamps; ts++ {
		for n := 0; n < benchQueryNames; n++ {
			_, err := tables.Logs.Insert(relation.Row{
				relation.Text("bench"), relation.Int(int64(ts)), relation.Text("train.flow"),
				relation.Int(int64(ts*benchQueryNames + n)), relation.Text(fmt.Sprintf("name_%d", n)),
				relation.Text("0.5"), relation.Int(2),
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		_, err := tables.Ts2vid.Insert(relation.Row{
			relation.Text("bench"), relation.Int(int64(ts)), relation.Int(int64(ts)),
			relation.Text(fmt.Sprintf("v%d", ts)), relation.Null(),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	return db
}

func benchQuery(b *testing.B, query string, wantRows int, naive bool) {
	snap := benchQueryDB(b).SnapshotLatest()
	stmt, err := sqlparse.Parse(query)
	if err != nil {
		b.Fatal(err)
	}
	exec := sqlparse.Execute
	if naive {
		exec = sqlparse.ExecuteScan
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := exec(snap, stmt)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != wantRows {
			b.Fatalf("rows = %d, want %d", len(res.Rows), wantRows)
		}
	}
}

const (
	benchPointQuery = "SELECT value FROM logs WHERE projid = 'bench' AND value_name = 'name_42'"
	benchRangeQuery = "SELECT value_name, value FROM logs WHERE tstamp BETWEEN 100 AND 110"
	benchJoinQuery  = `SELECT l.value, v.vid FROM logs l JOIN ts2vid v ON l.tstamp = v.ts_start
		WHERE l.projid = 'bench' AND l.value_name = 'name_7' AND v.projid = 'bench'`
)

func BenchmarkC8PointQuery(b *testing.B) {
	benchQuery(b, benchPointQuery, benchQueryTstamps, false)
}

func BenchmarkC8PointQueryScanBaseline(b *testing.B) {
	benchQuery(b, benchPointQuery, benchQueryTstamps, true)
}

func BenchmarkC9RangeQuery(b *testing.B) {
	benchQuery(b, benchRangeQuery, 11*benchQueryNames, false)
}

func BenchmarkC9RangeQueryScanBaseline(b *testing.B) {
	benchQuery(b, benchRangeQuery, 11*benchQueryNames, true)
}

func BenchmarkC10JoinPushdown(b *testing.B) {
	benchQuery(b, benchJoinQuery, benchQueryTstamps, false)
}

func BenchmarkC10JoinPushdownScanBaseline(b *testing.B) {
	benchQuery(b, benchJoinQuery, benchQueryTstamps, true)
}

// ---------------------------------------------------------------------------
// C14 — vectorized batch execution vs the row-at-a-time reference over full
// scans of a 100k-row metrics table (no secondary indexes, so the planner
// takes the batched scan path). The *RowBaseline variants run the identical
// statement through sqlparse.ExecuteScan — the volcano-style row executor —
// so the speedup is measured in-tree. The acceptance bar for the batch
// engine is >=3x on the scan-aggregate shape.
// ---------------------------------------------------------------------------

const (
	c14Tstamps = 1000
	c14Names   = 100 // 100k rows total
)

// benchC14DB builds an unindexed 100k-row metrics table: the workload shape
// of a hindsight aggregation over logged runs, stored with a real FLOAT
// metric column so aggregate arguments are pass-through columns.
func benchC14DB(b *testing.B) *relation.Database {
	b.Helper()
	db := relation.NewDatabase()
	t, err := db.CreateTable("metrics", relation.MustSchema(
		relation.Column{Name: "projid", Type: relation.TText},
		relation.Column{Name: "tstamp", Type: relation.TInt},
		relation.Column{Name: "name", Type: relation.TText},
		relation.Column{Name: "value", Type: relation.TFloat},
	))
	if err != nil {
		b.Fatal(err)
	}
	rows := make([]relation.Row, 0, c14Tstamps*c14Names)
	for ts := 0; ts < c14Tstamps; ts++ {
		for n := 0; n < c14Names; n++ {
			rows = append(rows, relation.Row{
				relation.Text("bench"), relation.Int(int64(ts)),
				relation.Text(fmt.Sprintf("metric_%d", n)),
				relation.Float(float64((ts*c14Names+n)%1000) / 1000),
			})
		}
	}
	if err := t.LoadVersions(rows, slices.Repeat([]int64{1}, len(rows))); err != nil {
		b.Fatal(err)
	}
	return db
}

const (
	c14AggQuery    = "SELECT name, count(*) AS n, avg(value) AS mean FROM metrics WHERE projid = 'bench' GROUP BY name"
	c14FilterQuery = "SELECT name, value FROM metrics WHERE value > 0.99"
)

func benchC14(b *testing.B, query string, wantRows int, naive bool) {
	snap := benchC14DB(b).SnapshotLatest()
	stmt, err := sqlparse.Parse(query)
	if err != nil {
		b.Fatal(err)
	}
	exec := sqlparse.Execute
	if naive {
		exec = sqlparse.ExecuteScan
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := exec(snap, stmt)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != wantRows {
			b.Fatalf("rows = %d, want %d", len(res.Rows), wantRows)
		}
	}
}

// BenchmarkC14ScanAggregate runs c14AggQuery, which the page-partial memo
// admits (EXPLAIN marks it [pages]: projid = 'bench' contains every page),
// but whose signature the memo refuses: every page holds all 100 names, over
// its bound of ZonePageRows/16 groups. It measures the decode path after
// that refusal (EXPERIMENTS C14, C24).
func BenchmarkC14ScanAggregate(b *testing.B) {
	benchC14(b, c14AggQuery, c14Names, false)
}

func BenchmarkC14ScanAggregateRowBaseline(b *testing.B) {
	benchC14(b, c14AggQuery, c14Names, true)
}

func BenchmarkC14FilterProject(b *testing.B) {
	benchC14(b, c14FilterQuery, 900, false)
}

func BenchmarkC14FilterProjectRowBaseline(b *testing.B) {
	benchC14(b, c14FilterQuery, 900, true)
}

// ---------------------------------------------------------------------------
// C17 — morsel-driven parallel scan + zone-map pruning. sqlparse.Execute
// sizes its worker pool from GOMAXPROCS, so running BenchmarkC17* under
// `-cpu=1,2,4,8` measures parallel scaling. The selective-scan variant reports how
// many zone pages the scan pruned vs decoded; the acceptance bar is
// decoding <20% of pages on the clustered-predicate shape.
// ---------------------------------------------------------------------------

func BenchmarkC17ParallelScanAggregate(b *testing.B) {
	benchC14(b, c14AggQuery, c14Names, false)
}

func BenchmarkC17ParallelFilterProject(b *testing.B) {
	benchC14(b, c14FilterQuery, 900, false)
}

// benchC17ClusteredDB is benchC14DB with a monotonic tstamp, the clustered
// shape zone maps prune best: consecutive pages hold disjoint tstamp ranges.
func benchC17ClusteredDB(b *testing.B) *relation.Database {
	b.Helper()
	db := relation.NewDatabase()
	t, err := db.CreateTable("metrics", relation.MustSchema(
		relation.Column{Name: "projid", Type: relation.TText},
		relation.Column{Name: "tstamp", Type: relation.TInt},
		relation.Column{Name: "name", Type: relation.TText},
		relation.Column{Name: "value", Type: relation.TFloat},
	))
	if err != nil {
		b.Fatal(err)
	}
	rows := make([]relation.Row, 0, c14Tstamps*c14Names)
	for i := 0; i < c14Tstamps*c14Names; i++ {
		rows = append(rows, relation.Row{
			relation.Text("bench"), relation.Int(int64(i)),
			relation.Text(fmt.Sprintf("metric_%d", i%c14Names)),
			relation.Float(float64(i%1000) / 1000),
		})
	}
	if err := t.LoadVersions(rows, slices.Repeat([]int64{1}, len(rows))); err != nil {
		b.Fatal(err)
	}
	return db
}

func BenchmarkC17ZoneMapSelectiveScan(b *testing.B) {
	snap := benchC17ClusteredDB(b).SnapshotLatest()
	stmt, err := sqlparse.Parse(
		"SELECT tstamp, value FROM metrics WHERE tstamp BETWEEN 90000 AND 90999")
	if err != nil {
		b.Fatal(err)
	}
	p0, d0 := relation.ScanStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sqlparse.Execute(snap, stmt)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 1000 {
			b.Fatalf("rows = %d, want 1000", len(res.Rows))
		}
	}
	b.StopTimer()
	p1, d1 := relation.ScanStats()
	pruned, decoded := float64(p1-p0), float64(d1-d0)
	if pruned+decoded > 0 {
		b.ReportMetric(decoded/float64(b.N), "pages-decoded/op")
		b.ReportMetric(decoded/(pruned+decoded), "decoded-frac")
	}
}

// ---------------------------------------------------------------------------
// C11 — session startup: cold O(history) WAL replay vs snapshot-accelerated
// recovery (load newest snapshot + replay the WAL tail) over a 100k-record
// history. The paper's checkpoint/replay design applied to metadata state.
// ---------------------------------------------------------------------------

const (
	benchRecoveryCommits = 100
	benchRecoveryLogsPer = 1000 // 100k log records total
)

// setupRecoveryDir records a 100k-record history (100 commits x 1000 logs)
// into a fresh project directory and closes the session.
func setupRecoveryDir(b *testing.B) string {
	b.Helper()
	dir := b.TempDir()
	sess, err := flor.Open(dir, "bench", flor.Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	sess.SetFilename("train.go")
	for c := 0; c < benchRecoveryCommits; c++ {
		for i := 0; i < benchRecoveryLogsPer; i++ {
			sess.Log(benchRecoveryNames[i%len(benchRecoveryNames)], float64(i))
		}
		if err := sess.Commit(""); err != nil {
			b.Fatal(err)
		}
	}
	if err := sess.Close(); err != nil {
		b.Fatal(err)
	}
	return dir
}

var benchRecoveryNames = func() []string {
	names := make([]string, 50)
	for i := range names {
		names[i] = fmt.Sprintf("metric_%d", i)
	}
	return names
}()

func benchRecoveryOpen(b *testing.B, dir string) {
	// Warm up (page cache, allocator) and collect the setup's garbage so
	// every timed iteration starts from the same heap state — without this,
	// a single-iteration run (make bench) measures the setup's GC debt
	// instead of recovery.
	warm, err := flor.Open(dir, "bench", flor.Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	if err := warm.Close(); err != nil {
		b.Fatal(err)
	}
	runtime.GC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := flor.Open(dir, "bench", flor.Options{NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		if n := sess.Tables().Logs.Len(); n != benchRecoveryCommits*benchRecoveryLogsPer {
			b.Fatalf("recovered %d log rows", n)
		}
		if err := sess.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkC11RecoveryCold(b *testing.B) {
	dir := setupRecoveryDir(b)
	benchRecoveryOpen(b, dir)
}

func BenchmarkC11RecoverySnapshot(b *testing.B) {
	dir := setupRecoveryDir(b)
	sess, err := flor.Open(dir, "bench", flor.Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sess.Compact(); err != nil {
		b.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		b.Fatal(err)
	}
	benchRecoveryOpen(b, dir)
}

// ---------------------------------------------------------------------------
// Ablations (§6 of DESIGN.md).
// ---------------------------------------------------------------------------

// Ablation 1: checkpoint policy — recording cost under different policies.
func benchPolicy(b *testing.B, policy func() replay.CheckpointPolicy) {
	st := heavyHostState()
	f, err := script.Parse("train.flow", hostlib.TrainSrc)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sess, err := flor.OpenMemory("bench", flor.Options{Policy: policy()})
		if err != nil {
			b.Fatal(err)
		}
		in := script.NewInterp(sessRecorder(sess), nil)
		hostlib.Register(in, st)
		b.StartTimer()
		if err := in.Run(f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationCheckpointNever(b *testing.B) {
	benchPolicy(b, func() replay.CheckpointPolicy { return replay.Never{} })
}

func BenchmarkAblationCheckpointEvery(b *testing.B) {
	benchPolicy(b, func() replay.CheckpointPolicy { return replay.EveryN{N: 1} })
}

func BenchmarkAblationCheckpointAdaptive(b *testing.B) {
	benchPolicy(b, func() replay.CheckpointPolicy { return &replay.Adaptive{Epsilon: 0.05} })
}

// Ablation 2: replay granularity — coarse (checkpoint restore, skip inner
// loop) vs full re-execution of the same single version.
func BenchmarkAblationReplayCoarse(b *testing.B) {
	sess, _ := setupHindsightBench(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reports, err := sess.Hindsight("train.flow", hostlib.TrainSrcWithNorm, nil)
		if err != nil || reports[0].Err != nil {
			b.Fatalf("%v %v", err, reports[0].Err)
		}
		if reports[0].Mode != "coarse" {
			b.Fatalf("mode = %s", reports[0].Mode)
		}
	}
}

func BenchmarkAblationReplayFull(b *testing.B) {
	// Force full mode by logging from inside the inner loop.
	sess, _ := setupHindsightBench(b, 1)
	withStepLog := hostlib.TrainSrc[:len(hostlib.TrainSrc)-1] + `
`
	// Inject a step-level statement variant: log loss ratio inside steps.
	newSrc := `
hidden_size = flor.arg("hidden", 32)
num_epochs = flor.arg("epochs", 5)
batch_size = flor.arg("batch_size", 16)
learning_rate = flor.arg("lr", 0.05)
seed = flor.arg("seed", 7)

net = make_mlp(hidden_size, seed)
optimizer = make_sgd(net, learning_rate, 0.9)

with flor.checkpointing(model=net, optimizer=optimizer) {
    for epoch in flor.loop("epoch", range(num_epochs)) {
        for data in flor.loop("step", batches(batch_size, epoch)) {
            loss = train_step(net, optimizer, data)
            flor.log("loss", loss)
            scaled = loss * 100
            flor.log("loss_scaled", scaled)
        }
        metrics = eval_model(net)
        flor.log("acc", metrics[0])
        flor.log("recall", metrics[1])
    }
}
`
	_ = withStepLog
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reports, err := sess.Hindsight("train.flow", newSrc, nil)
		if err != nil || reports[0].Err != nil {
			b.Fatalf("%v %+v", err, reports[0])
		}
		if reports[0].Mode != "full" {
			b.Fatalf("mode = %s", reports[0].Mode)
		}
	}
}

// Ablation 4: pivot strategy — hash pivot vs SQL join per column.
func BenchmarkAblationPivotHash(b *testing.B) {
	benchDataframeScale(b, 50)
}

func BenchmarkAblationPivotSQLJoin(b *testing.B) {
	sess, err := flor.OpenMemory("bench", flor.Options{})
	if err != nil {
		b.Fatal(err)
	}
	sess.SetFilename("train.go")
	for r := 0; r < 50; r++ {
		for it := sess.Loop("epoch", 10); it.Next(); {
			sess.Log("acc", 0.9)
			sess.Log("recall", 0.8)
		}
		sess.Commit("")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The self-join formulation a user would write without the pivot
		// operator: one logs scan per requested column.
		res, err := sess.SQL(`
			SELECT a.tstamp, a.ctx_id, a.value AS acc, r.value AS recall
			FROM logs a JOIN logs r ON a.ctx_id = r.ctx_id AND a.tstamp = r.tstamp
			WHERE a.value_name = 'acc' AND r.value_name = 'recall'`)
		if err != nil || len(res.Rows) != 500 {
			b.Fatalf("%v rows=%d", err, len(res.Rows))
		}
	}
}

// Ablation 5: WAL batching — per-record flush vs group commit.
func BenchmarkAblationWALPerRecordFlush(b *testing.B) {
	w, err := storage.OpenWAL(b.TempDir()+"/w.wal", storage.Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	rec := logBenchRecord()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Append(rec); err != nil {
			b.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationWALGroupCommit(b *testing.B) {
	w, err := storage.OpenWAL(b.TempDir()+"/w.wal", storage.Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	rec := logBenchRecord()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Append(rec); err != nil {
			b.Fatal(err)
		}
		if i%100 == 99 {
			if err := w.Flush(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func logBenchRecord() *record.LogRecord {
	return &record.LogRecord{
		Kind: record.KindLog, ProjID: "bench", Tstamp: 1, Filename: "train.go",
		ValueName: "loss", Value: "0.123", Wall: time.Unix(0, 0).UTC(),
	}
}

// ---------------------------------------------------------------------------
// C12 — concurrent SQL read throughput while a writer logs. Readers pin
// committed-epoch snapshots (Session.Reader) and run an index-backed
// aggregate; one background goroutine logs continuously, never committing.
// MVCC makes the read path lock-free, so ns/op should drop near-linearly as
// goroutines are added (aggregate throughput scales) and the writer's
// presence should not stall any reader.
// ---------------------------------------------------------------------------

const c12ReadQuery = "SELECT count(*) AS n, avg(cast_float(value)) AS m FROM logs WHERE projid = 'bench' AND value_name = 'metric_7'"

func setupConcurrentReadSession(b *testing.B) *flor.Session {
	b.Helper()
	sess, err := flor.OpenMemory("bench", flor.Options{})
	if err != nil {
		b.Fatal(err)
	}
	sess.SetFilename("train.go")
	for i := 0; i < 20000; i++ {
		sess.Log(benchRecoveryNames[i%len(benchRecoveryNames)], float64(i))
	}
	if err := sess.Commit("seed"); err != nil {
		b.Fatal(err)
	}
	return sess
}

func benchConcurrentReads(b *testing.B, readers int) {
	sess := setupConcurrentReadSession(b)
	defer sess.Close()

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		// Paced like a training loop (~200k records/sec ceiling), not an
		// unthrottled spin: the benchmark measures reader scaling under
		// write load, not readers starved of CPU by a busy-loop.
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			sess.Log("noise", i)
			if i%100 == 99 {
				time.Sleep(500 * time.Microsecond)
			}
		}
	}()

	var next atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				v, err := sess.Reader()
				if err != nil {
					b.Error(err)
					return
				}
				res, err := v.SQL(c12ReadQuery)
				if err != nil {
					b.Error(err)
					return
				}
				if res.Rows[0][0].AsInt() != 400 {
					b.Errorf("unexpected count %v", res.Rows[0])
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	close(stop)
	writer.Wait()
}

func BenchmarkC12ConcurrentReads1(b *testing.B) { benchConcurrentReads(b, 1) }
func BenchmarkC12ConcurrentReads2(b *testing.B) { benchConcurrentReads(b, 2) }
func BenchmarkC12ConcurrentReads4(b *testing.B) { benchConcurrentReads(b, 4) }
func BenchmarkC12ConcurrentReads8(b *testing.B) { benchConcurrentReads(b, 8) }

// ---------------------------------------------------------------------------
// C13 — group-commit throughput: N goroutines committing concurrently to
// one durable session. Commit appends under the WAL's short lock and rides
// a shared fsync, so commits/sec should grow with committers while the
// fsync count stays ~one per batch. The writers=1 case is the serialized
// baseline.
// ---------------------------------------------------------------------------

func benchGroupCommit(b *testing.B, writers int) {
	dir := b.TempDir()
	sess, err := flor.Open(dir, "bench", flor.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Close()
	sess.SetFilename("app.go")

	syncs0 := sess.WALSyncCount()
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				sess.Log("v", g)
				if err := sess.Commit(""); err != nil {
					b.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	b.StopTimer()
	// The group-commit claim, hardware-independent: fsyncs per commit drops
	// below 1 as concurrent committers coalesce onto shared fsyncs.
	b.ReportMetric(float64(sess.WALSyncCount()-syncs0)/float64(b.N), "fsyncs/commit")
}

func BenchmarkC13GroupCommit1(b *testing.B)  { benchGroupCommit(b, 1) }
func BenchmarkC13GroupCommit4(b *testing.B)  { benchGroupCommit(b, 4) }
func BenchmarkC13GroupCommit16(b *testing.B) { benchGroupCommit(b, 16) }

// ---------------------------------------------------------------------------
// C15 — replica catch-up: a cold follower bootstraps over HTTP segment
// shipping and replays 100k records (100 sealed segments) into its own MVCC
// epochs. Measures the full pipeline: manifest, ranged fetch, CRC verify,
// install, replay, epoch publish.
// ---------------------------------------------------------------------------

func BenchmarkC15ReplicaCatchup(b *testing.B) {
	const (
		commits       = 100
		logsPerCommit = 1000
	)
	dir := b.TempDir()
	// SegmentBytes: 1 seals a segment at every commit, so the whole history
	// is shippable and the follower exercises the segment path (not a
	// snapshot install).
	sess, err := flor.Open(dir, "bench", flor.Options{NoSync: true, SegmentBytes: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Close()
	sess.SetFilename("app.go")
	for c := 0; c < commits; c++ {
		for i := 0; i < logsPerCommit; i++ {
			sess.Log("metric", i)
		}
		if err := sess.Commit(""); err != nil {
			b.Fatal(err)
		}
	}
	prim := repl.NewPrimary(sess)
	srv := httptest.NewServer(prim.Routes())
	defer srv.Close()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		f, err := repl.StartFollower(ctx, repl.FollowerConfig{
			PrimaryURL: srv.URL,
			Dir:        b.TempDir(),
			ProjID:     "bench",
			PollWait:   10 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		done := make(chan struct{})
		go func() { f.Run(ctx); close(done) }()
		for f.Applied() < commits {
			if err := f.Fault(); err != nil {
				b.Fatal(err)
			}
			time.Sleep(time.Millisecond)
		}
		cancel()
		<-done
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(commits*logsPerCommit), "records/catchup")
}

// ---------------------------------------------------------------------------
// C16 — time travel: an AS OF aggregate pinned at a mid-history epoch versus
// the same query at the latest epoch. The visibility check is a per-version
// epoch comparison, so historical reads should pay a small constant factor,
// not a replay.
// ---------------------------------------------------------------------------

func benchAsOfSession(b *testing.B) *flor.Session {
	b.Helper()
	sess, err := flor.OpenMemory("bench", flor.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { sess.Close() })
	sess.SetFilename("app.go")
	const commits, logsPerCommit = 10, 1000
	for c := 0; c < commits; c++ {
		for i := 0; i < logsPerCommit; i++ {
			sess.Log("metric", c*logsPerCommit+i)
		}
		if err := sess.Commit(""); err != nil {
			b.Fatal(err)
		}
	}
	return sess
}

func benchAsOfQuery(b *testing.B, q string, wantRows int64) {
	sess := benchAsOfSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sess.SQL(q)
		if err != nil {
			b.Fatal(err)
		}
		if got := res.Rows[0][0].AsInt(); got != wantRows {
			b.Fatalf("count = %d, want %d", got, wantRows)
		}
	}
}

func BenchmarkC16AsOfQuery(b *testing.B) {
	benchAsOfQuery(b, "SELECT count(*) AS n FROM logs WHERE value_name = 'metric' AS OF 5", 5000)
}

func BenchmarkC16AsOfQueryLatestBaseline(b *testing.B) {
	benchAsOfQuery(b, "SELECT count(*) AS n FROM logs WHERE value_name = 'metric'", 10000)
}

// ---------------------------------------------------------------------------
// C24 — page partials (Moerkotte's small materialized aggregates). An
// eligible aggregate merges the stored partial of each complete page it
// contains instead of decoding it; the first statement to touch a page
// builds its partial. Cold runs each query on a fresh table every iteration,
// the load outside the timer: the first-touch figure. Warm repeats it on one
// table: the reuse figure. "grouped" is c14AggQuery, whose signature the
// memo refuses (100 groups per page); "global" is one group per page.
// ---------------------------------------------------------------------------

const c24GlobalQuery = "SELECT count(*) AS n, avg(value) AS mean FROM metrics WHERE projid = 'bench'"

func BenchmarkC24PageAggregatesCold(b *testing.B) {
	for _, bc := range []struct {
		name, query string
		rows        int
	}{{"grouped", c14AggQuery, c14Names}, {"global", c24GlobalQuery, 1}} {
		b.Run(bc.name, func(b *testing.B) {
			stmt, err := sqlparse.Parse(bc.query)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				snap := benchC14DB(b).SnapshotLatest()
				runtime.GC() // the load's garbage is not the query's
				b.StartTimer()
				res, err := sqlparse.Execute(snap, stmt)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) != bc.rows {
					b.Fatalf("rows = %d, want %d", len(res.Rows), bc.rows)
				}
			}
		})
	}
}

func BenchmarkC24PageAggregatesWarm(b *testing.B) {
	benchC14(b, c24GlobalQuery, 1, false)
}
