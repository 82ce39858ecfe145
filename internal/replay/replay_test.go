package replay

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flordb/internal/record"
	"flordb/internal/relation"
	"flordb/internal/script"
	"flordb/internal/storage"
	"flordb/internal/vcs"
)

// toyModel is a Snapshotter whose state is the sum of all training inputs —
// restore-vs-recompute equivalence is exactly checkable.
type toyModel struct {
	Sum   float64 `json:"sum"`
	Steps int     `json:"steps"`
}

func (m *toyModel) Snapshot() ([]byte, error) { return json.Marshal(m) }
func (m *toyModel) Restore(b []byte) error    { return json.Unmarshal(b, m) }

// testDBs maps the tables newTestTables creates to their database, so view
// can pin them.
var testDBs sync.Map // *record.Tables -> *relation.Database

// view pins tables at the latest epoch through Tables.At: every row recorded
// so far, the view a session's LatestReader gives. The pin is released when
// the test ends.
func view(t *testing.T, tables *record.Tables) *record.TablesView {
	t.Helper()
	db, ok := testDBs.Load(tables)
	if !ok {
		t.Fatal("view: tables not made by newTestTables")
	}
	snap := db.(*relation.Database).SnapshotLatest()
	t.Cleanup(snap.Release)
	v, err := tables.At(snap)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// allocAfter returns a ctx_id allocator past every id recorded in tables —
// the one a session's recorder holds.
func allocAfter(t *testing.T, tables *record.Tables) func() int64 {
	n := MaxCtxID(view(t, tables))
	return func() int64 { return atomic.AddInt64(&n, 1) }
}

func newTestTables(t *testing.T) *record.Tables {
	t.Helper()
	db := relation.NewDatabase()
	tables, err := record.CreateTables(db)
	if err != nil {
		t.Fatal(err)
	}
	testDBs.Store(tables, db)
	return tables
}

// trainSrc is a Figure-5-shaped training script.
const trainSrc = `
epochs = flor.arg("epochs", 4)
net = make_model()
with flor.checkpointing(model=net) {
    for epoch in flor.loop("epoch", range(epochs)) {
        for step in flor.loop("step", range(3)) {
            train_step(net, epoch * 3 + step)
        }
        acc = eval_model(net)
        flor.log("acc", acc)
    }
}
`

func setupHosts(model *toyModel) func(in *script.Interp) {
	return func(in *script.Interp) {
		in.RegisterHost("make_model", func([]script.Value, map[string]script.Value) (script.Value, error) {
			model.Sum = 0
			model.Steps = 0
			return model, nil
		})
		in.RegisterHost("train_step", func(args []script.Value, _ map[string]script.Value) (script.Value, error) {
			m := args[0].(*toyModel)
			x := float64(args[1].(int64))
			m.Sum += x
			m.Steps++
			return nil, nil
		})
		in.RegisterHost("eval_model", func(args []script.Value, _ map[string]script.Value) (script.Value, error) {
			m := args[0].(*toyModel)
			return m.Sum, nil
		})
	}
}

// recordRun executes trainSrc with a Recorder at the given tstamp.
func recordRun(t *testing.T, tables *record.Tables, tstamp int64, policy CheckpointPolicy, src string) *CheckpointManager {
	t.Helper()
	ctx := &Context{ProjID: "p", Filename: "train.flow", Tstamp: tstamp, Tables: tables}
	ckpt := NewCheckpointManager(policy)
	rec := NewRecorder(ctx, ckpt)
	rec.SetCtxCounter(MaxCtxID(view(t, tables)))
	model := &toyModel{}
	in := script.NewInterp(rec, nil)
	setupHosts(model)(in)
	f, err := script.Parse("train.flow", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Run(f); err != nil {
		t.Fatal(err)
	}
	return ckpt
}

func TestRecorderPopulatesFigure1Tables(t *testing.T) {
	tables := newTestTables(t)
	recordRun(t, tables, 1, EveryN{N: 1}, trainSrc)

	// 4 epochs x (1 epoch row + 3 step rows) = 16 loops rows.
	if tables.Loops.Len() != 16 {
		t.Fatalf("loops rows = %d", tables.Loops.Len())
	}
	// 4 acc logs.
	if tables.Logs.Len() != 4 {
		t.Fatalf("logs rows = %d", tables.Logs.Len())
	}
	// 1 arg.
	if tables.Args.Len() != 1 {
		t.Fatalf("args rows = %d", tables.Args.Len())
	}
	// Every-iteration policy: 4 checkpoints in obj_store.
	if tables.ObjStore.Len() != 4 {
		t.Fatalf("obj_store rows = %d", tables.ObjStore.Len())
	}
	// ctx nesting: every step row's parent is an epoch row.
	epochCtx := map[int64]bool{}
	for _, row := range view(t, tables).Loops.Rows() {
		if row[5].AsText() == "epoch" {
			epochCtx[row[3].AsInt()] = true
		}
	}
	for _, row := range view(t, tables).Loops.Rows() {
		if row[5].AsText() == "step" && !epochCtx[row[4].AsInt()] {
			t.Fatalf("step row parent %d is not an epoch ctx", row[4].AsInt())
		}
	}
	// Log rows carry the epoch ctx (logged after the inner loop).
	for _, row := range view(t, tables).Logs.Rows() {
		if !epochCtx[row[3].AsInt()] {
			t.Fatalf("log ctx %d not an epoch ctx", row[3].AsInt())
		}
	}
}

func TestCheckpointPolicies(t *testing.T) {
	tables := newTestTables(t)
	ck := recordRun(t, tables, 1, EveryN{N: 2}, trainSrc)
	if len(ck.Taken) != 2 { // iterations 1 and 3
		t.Fatalf("every-2 checkpoints: %v", ck.Taken)
	}
	tables2 := newTestTables(t)
	ck2 := recordRun(t, tables2, 1, Never{}, trainSrc)
	if len(ck2.Taken) != 0 {
		t.Fatalf("never policy took checkpoints: %v", ck2.Taken)
	}
}

func TestAdaptivePolicyBudget(t *testing.T) {
	p := &Adaptive{Epsilon: 0.10}
	// First iteration always checkpoints.
	if !p.ShouldCheckpoint(0, time.Millisecond, 0) {
		t.Fatal("adaptive must checkpoint iteration 0")
	}
	p.RecordCheckpointCost(10 * time.Millisecond)
	// Next iteration: cumulative body 2ms, ckpt cost 10ms >> 10% budget.
	if p.ShouldCheckpoint(1, time.Millisecond, 10*time.Millisecond) {
		t.Fatal("adaptive should defer when over budget")
	}
	// After many long iterations the budget recovers.
	allowed := false
	for i := 2; i < 200; i++ {
		if p.ShouldCheckpoint(i, 10*time.Millisecond, 10*time.Millisecond) {
			allowed = true
			break
		}
	}
	if !allowed {
		t.Fatal("adaptive never recovered budget")
	}
}

func TestCheckpointSerializeRestoreRoundTrip(t *testing.T) {
	m := NewCheckpointManager(EveryN{N: 1})
	model := &toyModel{Sum: 42.5, Steps: 7}
	if err := m.Begin(map[string]script.Value{"model": model}); err != nil {
		t.Fatal(err)
	}
	blob, err := m.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	model.Sum = 0
	model.Steps = 0
	if err := m.RestoreInto(blob, map[string]script.Value{"model": model}); err != nil {
		t.Fatal(err)
	}
	if model.Sum != 42.5 || model.Steps != 7 {
		t.Fatalf("restore: %+v", model)
	}
}

func TestCheckpointRejectsNonSnapshotter(t *testing.T) {
	m := NewCheckpointManager(nil)
	if err := m.Begin(map[string]script.Value{"x": int64(5)}); err == nil {
		t.Fatal("non-snapshotter must be rejected")
	}
}

func TestCheckpointRestoreMissingObject(t *testing.T) {
	m := NewCheckpointManager(nil)
	model := &toyModel{}
	m.Begin(map[string]script.Value{"model": model})
	blob, _ := m.Serialize()
	other := &toyModel{}
	if err := m.RestoreInto(blob, map[string]script.Value{"missing": other}); err == nil {
		t.Fatal("missing object must error")
	}
}

// hindsightFixture records 3 versions of a training script in a repo +
// tables, then returns everything needed to drive hindsight replay.
func hindsightFixture(t *testing.T) (*vcs.Repo, *record.Tables, []VersionJob, *toyModel) {
	t.Helper()
	tables := newTestTables(t)
	repo := vcs.NewRepo()
	var versions []VersionJob
	for ts := int64(1); ts <= 3; ts++ {
		recordRun(t, tables, ts, EveryN{N: 1}, trainSrc)
		vid, err := repo.CommitFiles(map[string]string{"train.flow": trainSrc}, "run", time.Unix(ts, 0))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tables.Ts2vid.Insert(relation.Row{
			relation.Text("p"), relation.Int(ts), relation.Int(ts), relation.Text(vid), relation.Text("train"),
		}); err != nil {
			t.Fatal(err)
		}
		versions = append(versions, VersionJob{VID: vid, Tstamp: ts})
	}
	return repo, tables, versions, &toyModel{}
}

// newSrcWithWeightLog adds a hindsight statement after the inner loop.
const newSrcWithWeightLog = `
epochs = flor.arg("epochs", 4)
net = make_model()
with flor.checkpointing(model=net) {
    for epoch in flor.loop("epoch", range(epochs)) {
        for step in flor.loop("step", range(3)) {
            train_step(net, epoch * 3 + step)
        }
        weight = eval_model(net)
        flor.log("weight", weight)
        acc = eval_model(net)
        flor.log("acc", acc)
    }
}
`

func TestHindsightCoarseReplayAcrossVersions(t *testing.T) {
	repo, tables, versions, model := hindsightFixture(t)
	d := &Driver{Repo: repo, Tables: tables, View: view(t, tables), NextCtx: allocAfter(t, tables), ProjID: "p", Setup: setupHosts(model), Workers: 1}
	reports, err := d.Hindsight("train.flow", newSrcWithWeightLog, versions, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reports {
		if rep.Err != nil {
			t.Fatalf("version %s: %v", vcs.Short(rep.VID), rep.Err)
		}
		if rep.Injected != 2 { // weight assignment + log
			t.Fatalf("injected = %d", rep.Injected)
		}
		if rep.Mode != "coarse" {
			t.Fatalf("mode = %s", rep.Mode)
		}
		if rep.Stats.LogsEmitted != 4 { // one weight per epoch
			t.Fatalf("logs emitted = %d", rep.Stats.LogsEmitted)
		}
		// COARSE mode: every epoch's inner loop skipped.
		if rep.Stats.InnerLoopsSkipped != 4 {
			t.Fatalf("inner loops skipped = %d", rep.Stats.InnerLoopsSkipped)
		}
	}

	// The new "weight" values must equal the model state the original run
	// would have had: sum of 0..(3(e+1)-1).
	want := map[int64]float64{}
	for e := int64(0); e < 4; e++ {
		n := 3 * (e + 1)
		want[e] = float64(n*(n-1)) / 2
	}
	count := 0
	for _, row := range view(t, tables).Logs.Rows() {
		if row[4].AsText() != "weight" {
			continue
		}
		count++
		// Resolve epoch via ctx -> loops row.
		ctxID := row[3].AsInt()
		ts := row[1].AsInt()
		var epoch int64 = -1
		for _, lrow := range view(t, tables).Loops.Rows() {
			if lrow[3].AsInt() == ctxID && lrow[1].AsInt() == ts {
				epoch = lrow[6].AsInt()
			}
		}
		if epoch < 0 {
			t.Fatalf("weight log ctx %d has no loops row", ctxID)
		}
		got := record.ParseValue(row[5].AsText(), record.ValueType(row[6].AsInt()))
		if got.AsFloat() != want[epoch] {
			t.Fatalf("weight at epoch %d = %v want %v", epoch, got, want[epoch])
		}
	}
	if count != 12 { // 4 epochs x 3 versions
		t.Fatalf("weight logs = %d", count)
	}
	// Old names must NOT be duplicated: still exactly 4 acc logs per version.
	accCount := 0
	for _, row := range view(t, tables).Logs.Rows() {
		if row[4].AsText() == "acc" {
			accCount++
		}
	}
	if accCount != 12 {
		t.Fatalf("acc logs = %d (replay must not duplicate old logs)", accCount)
	}
}

// newSrcWithStepLog adds a hindsight statement INSIDE the inner loop.
const newSrcWithStepLog = `
epochs = flor.arg("epochs", 4)
net = make_model()
with flor.checkpointing(model=net) {
    for epoch in flor.loop("epoch", range(epochs)) {
        for step in flor.loop("step", range(3)) {
            train_step(net, epoch * 3 + step)
            flor.log("running_sum", eval_model(net))
        }
        acc = eval_model(net)
        flor.log("acc", acc)
    }
}
`

func TestHindsightFullReplayForInnerLoopStatements(t *testing.T) {
	repo, tables, versions, model := hindsightFixture(t)
	d := &Driver{Repo: repo, Tables: tables, View: view(t, tables), NextCtx: allocAfter(t, tables), ProjID: "p", Setup: setupHosts(model), Workers: 1}
	reports, err := d.Hindsight("train.flow", newSrcWithStepLog, versions[:1], nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := reports[0]
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if rep.Mode != "full" {
		t.Fatalf("mode = %s", rep.Mode)
	}
	if rep.Stats.LogsEmitted != 12 { // 4 epochs x 3 steps
		t.Fatalf("logs = %d", rep.Stats.LogsEmitted)
	}
	// Check a value: running_sum after step s of epoch e is sum of 0..(3e+s).
	found := 0
	for _, row := range view(t, tables).Logs.Rows() {
		if row[4].AsText() != "running_sum" || row[1].AsInt() != 1 {
			continue
		}
		found++
	}
	if found != 12 {
		t.Fatalf("running_sum logs at ts=1: %d", found)
	}
}

func TestHindsightTargetedEpochs(t *testing.T) {
	repo, tables, versions, model := hindsightFixture(t)
	d := &Driver{Repo: repo, Tables: tables, View: view(t, tables), NextCtx: allocAfter(t, tables), ProjID: "p", Setup: setupHosts(model), Workers: 1}
	reports, err := d.Hindsight("train.flow", newSrcWithWeightLog, versions[:1], []int{3})
	if err != nil {
		t.Fatal(err)
	}
	rep := reports[0]
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if rep.Stats.IterationsRun != 1 || rep.Stats.IterationsSkipped != 3 {
		t.Fatalf("targeted run: %+v", rep.Stats)
	}
	if rep.Stats.LogsEmitted != 1 {
		t.Fatalf("logs = %d", rep.Stats.LogsEmitted)
	}
}

// TestDriverRefusesMissingViewOrAllocator: a driver without the pinned view
// history is read from, or without the ctx_id allocator, fails with an error
// before replaying anything.
func TestDriverRefusesMissingViewOrAllocator(t *testing.T) {
	repo, tables, versions, model := hindsightFixture(t)
	loopsBefore, logsBefore := tables.Loops.Len(), tables.Logs.Len()
	for name, d := range map[string]*Driver{
		"no view":      {Repo: repo, Tables: tables, NextCtx: allocAfter(t, tables), ProjID: "p", Setup: setupHosts(model)},
		"no allocator": {Repo: repo, Tables: tables, View: view(t, tables), ProjID: "p", Setup: setupHosts(model)},
	} {
		if reports, err := d.Hindsight("train.flow", newSrcWithWeightLog, versions, nil); err == nil {
			t.Fatalf("%s: hindsight ran: %+v", name, reports)
		}
	}
	if tables.Loops.Len() != loopsBefore || tables.Logs.Len() != logsBefore {
		t.Fatal("a refused driver wrote rows")
	}
}

func TestHindsightReusesRecordedCtxIDs(t *testing.T) {
	repo, tables, versions, model := hindsightFixture(t)
	loopsBefore := tables.Loops.Len()
	d := &Driver{Repo: repo, Tables: tables, View: view(t, tables), NextCtx: allocAfter(t, tables), ProjID: "p", Setup: setupHosts(model), Workers: 1}
	if _, err := d.Hindsight("train.flow", newSrcWithWeightLog, versions, nil); err != nil {
		t.Fatal(err)
	}
	// Replay must not mint new loops rows for existing iterations.
	if tables.Loops.Len() != loopsBefore {
		t.Fatalf("loops rows grew from %d to %d", loopsBefore, tables.Loops.Len())
	}
}

func TestHindsightParallelWorkers(t *testing.T) {
	repo, tables, versions, _ := hindsightFixture(t)
	// Each worker needs its own model instance; Setup constructs per-interp
	// models via make_model with a fresh toyModel per call.
	d := &Driver{Repo: repo, Tables: tables, View: view(t, tables), NextCtx: allocAfter(t, tables), ProjID: "p", Workers: 3,
		Setup: func(in *script.Interp) {
			m := &toyModel{}
			setupHosts(m)(in)
		}}
	reports, err := d.Hindsight("train.flow", newSrcWithWeightLog, versions, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, rep := range reports {
		if rep.Err != nil {
			t.Fatal(rep.Err)
		}
		total += rep.Stats.LogsEmitted
	}
	if total != 12 {
		t.Fatalf("parallel logs = %d", total)
	}
}

func TestHindsightIdenticalVersionSkipped(t *testing.T) {
	repo, tables, versions, model := hindsightFixture(t)
	d := &Driver{Repo: repo, Tables: tables, View: view(t, tables), NextCtx: allocAfter(t, tables), ProjID: "p", Setup: setupHosts(model), Workers: 1}
	reports, err := d.Hindsight("train.flow", trainSrc, versions, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reports {
		if !rep.Skipped {
			t.Fatalf("identical source must be skipped: %+v", rep)
		}
	}
}

func TestHindsightCoarseFallsBackToFull(t *testing.T) {
	// The OLD code defines `x` only inside the inner loop; the new version
	// merely adds flor.log("last_x", x) after the inner loop. COARSE replay
	// skips the inner loop, hits an undefined `x`, and must retry FULL.
	oldSrc := `
epochs = flor.arg("epochs", 4)
net = make_model()
with flor.checkpointing(model=net) {
    for epoch in flor.loop("epoch", range(epochs)) {
        for step in flor.loop("step", range(3)) {
            x = epoch * 3 + step
            train_step(net, x)
        }
        acc = eval_model(net)
        flor.log("acc", acc)
    }
}
`
	newSrc := `
epochs = flor.arg("epochs", 4)
net = make_model()
with flor.checkpointing(model=net) {
    for epoch in flor.loop("epoch", range(epochs)) {
        for step in flor.loop("step", range(3)) {
            x = epoch * 3 + step
            train_step(net, x)
        }
        flor.log("last_x", x)
        acc = eval_model(net)
        flor.log("acc", acc)
    }
}
`
	tables := newTestTables(t)
	repo := vcs.NewRepo()
	recordRun(t, tables, 1, EveryN{N: 1}, oldSrc)
	vid, _ := repo.CommitFiles(map[string]string{"train.flow": oldSrc}, "run", time.Unix(1, 0))
	tables.Ts2vid.Insert(relation.Row{relation.Text("p"), relation.Int(1), relation.Int(1), relation.Text(vid), relation.Text("train")})

	model := &toyModel{}
	d := &Driver{Repo: repo, Tables: tables, View: view(t, tables), NextCtx: allocAfter(t, tables), ProjID: "p", Setup: setupHosts(model), Workers: 1}
	reports, err := d.Hindsight("train.flow", newSrc, []VersionJob{{VID: vid, Tstamp: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := reports[0]
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if !rep.RetryFull || rep.Mode != "full" {
		t.Fatalf("expected full-mode retry: %+v", rep)
	}
	if rep.Stats.LogsEmitted != 4 {
		t.Fatalf("logs = %d", rep.Stats.LogsEmitted)
	}
}

func TestHistoricalVersions(t *testing.T) {
	repo, tables, versions, _ := hindsightFixture(t)
	jobs, err := HistoricalVersions(repo, view(t, tables), "p", "train.flow")
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != len(versions) {
		t.Fatalf("jobs = %d", len(jobs))
	}
	for i := range jobs {
		if jobs[i].VID != versions[i].VID || jobs[i].Tstamp != versions[i].Tstamp {
			t.Fatalf("job %d: %+v vs %+v", i, jobs[i], versions[i])
		}
	}
}

func TestReplayArgUsesHistoricalValue(t *testing.T) {
	tables := newTestTables(t)
	// Record with epochs=2 override.
	ctx := &Context{ProjID: "p", Filename: "train.flow", Tstamp: 1, Tables: tables}
	rec := NewRecorder(ctx, NewCheckpointManager(EveryN{N: 1}))
	rec.Args = map[string]string{"epochs": "2"}
	model := &toyModel{}
	in := script.NewInterp(rec, nil)
	setupHosts(model)(in)
	f, _ := script.Parse("train.flow", trainSrc)
	if err := in.Run(f); err != nil {
		t.Fatal(err)
	}
	if tables.Logs.Len() != 2 {
		t.Fatalf("recorded epochs = %d logs", tables.Logs.Len())
	}
	// Replay: default says 4, history says 2 — replay must honor 2.
	r := NewReplayer(&Context{ProjID: "p", Filename: "train.flow", Tstamp: 1, Tables: tables}, view(t, tables), allocAfter(t, tables))
	r.NewNames = map[string]bool{"weight": true}
	in2 := script.NewInterp(r, nil)
	model2 := &toyModel{}
	setupHosts(model2)(in2)
	f2, _ := script.Parse("train.flow", newSrcWithWeightLog)
	if err := in2.Run(f2); err != nil {
		t.Fatal(err)
	}
	if r.Stats.LogsEmitted != 2 {
		t.Fatalf("replay honored wrong epoch count: %d logs", r.Stats.LogsEmitted)
	}
}

// TestReplayerIterationContextReachesWAL: a flor.iteration context the
// replayer allocates for an unrecorded (name, value) reaches the WAL beside
// the rows logged under it, so recovery rebuilds the loops row they point at.
func TestReplayerIterationContextReachesWAL(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "flor.wal")
	wal, err := storage.OpenWAL(walPath, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tables := newTestTables(t)
	r := NewReplayer(&Context{ProjID: "p", Filename: "f", Tstamp: 1, Tables: tables, WAL: wal}, view(t, tables), allocAfter(t, tables))
	if err := r.IterationBegin("doc", "a.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Log("pages", int64(3)); err != nil {
		t.Fatal(err)
	}
	if err := r.IterationEnd(); err != nil {
		t.Fatal(err)
	}
	if err := wal.AppendCommit(&record.CommitRecord{Kind: record.KindCommit, ProjID: "p", Tstamp: 1}); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	got := newTestTables(t)
	if _, err := storage.RecoverTables(walPath, got, nil, "", true, storage.RecoverHooks{}); err != nil {
		t.Fatal(err)
	}
	logs := view(t, got).Logs.Rows()
	if len(logs) != 1 {
		t.Fatalf("recovered %d logs rows, want 1", len(logs))
	}
	ctxID := logs[0][3].AsInt()
	for _, row := range view(t, got).Loops.Rows() {
		if row[3].AsInt() == ctxID && row[5].AsText() == "doc" && row[6].AsInt() == -1 && row[7].AsText() == "a.txt" {
			return
		}
	}
	t.Fatalf("the logs row points at ctx %d, but recovery rebuilt no loops row for it: %v", ctxID, view(t, got).Loops.Rows())
}

func TestRecorderArgCoercion(t *testing.T) {
	tables := newTestTables(t)
	ctx := &Context{ProjID: "p", Filename: "f", Tstamp: 1, Tables: tables}
	rec := NewRecorder(ctx, nil)
	rec.Args = map[string]string{"lr": "0.5", "n": "7", "flag": "true", "name": "x"}
	if v, err := rec.Arg("lr", 0.001); err != nil || v.(float64) != 0.5 {
		t.Fatalf("float arg: %v %v", v, err)
	}
	if v, err := rec.Arg("n", int64(1)); err != nil || v.(int64) != 7 {
		t.Fatalf("int arg: %v %v", v, err)
	}
	if v, err := rec.Arg("flag", false); err != nil || v.(bool) != true {
		t.Fatalf("bool arg: %v %v", v, err)
	}
	if v, err := rec.Arg("name", "d"); err != nil || v.(string) != "x" {
		t.Fatalf("string arg: %v %v", v, err)
	}
	if v, err := rec.Arg("missing", int64(9)); err != nil || v.(int64) != 9 {
		t.Fatalf("default arg: %v %v", v, err)
	}
	if _, err := rec.Arg("name2", int64(1)); err == nil {
		rec.Args["name2"] = "not-an-int"
		if _, err := rec.Arg("name2", int64(1)); err == nil {
			t.Fatal("bad coercion must error")
		}
	}
}

func TestPolicyNames(t *testing.T) {
	if (EveryN{N: 1}).Name() != "every-iteration" {
		t.Fatal("every-1 name")
	}
	if (EveryN{N: 4}).Name() != "every-4" {
		t.Fatal("every-4 name")
	}
	if (Never{}).Name() != "never" {
		t.Fatal("never name")
	}
	if (&Adaptive{}).Name() != "adaptive" {
		t.Fatal("adaptive name")
	}
}

func TestReplayNoCheckpointsDegeneratesToFull(t *testing.T) {
	// Record WITHOUT checkpoints; hindsight replay must still work by
	// re-executing everything.
	tables := newTestTables(t)
	repo := vcs.NewRepo()
	recordRun(t, tables, 1, Never{}, trainSrc)
	vid, _ := repo.CommitFiles(map[string]string{"train.flow": trainSrc}, "run", time.Unix(1, 0))
	tables.Ts2vid.Insert(relation.Row{relation.Text("p"), relation.Int(1), relation.Int(1), relation.Text(vid), relation.Text("train")})

	model := &toyModel{}
	d := &Driver{Repo: repo, Tables: tables, View: view(t, tables), NextCtx: allocAfter(t, tables), ProjID: "p", Setup: setupHosts(model), Workers: 1}
	reports, err := d.Hindsight("train.flow", newSrcWithWeightLog, []VersionJob{{VID: vid, Tstamp: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := reports[0]
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if rep.Stats.LogsEmitted != 4 {
		t.Fatalf("logs = %d", rep.Stats.LogsEmitted)
	}
	if rep.Stats.Restores != 0 {
		t.Fatalf("restores without checkpoints: %d", rep.Stats.Restores)
	}
	// All 4 iterations had to run.
	if rep.Stats.IterationsRun != 4 {
		t.Fatalf("iterations run = %d", rep.Stats.IterationsRun)
	}
}

func TestInjectedInsideInnerLoopDetection(t *testing.T) {
	newF, _ := script.Parse("t", newSrcWithStepLog)
	oldF, _ := script.Parse("t", trainSrc)
	merged, _ := script.Propagate(oldF, newF)
	if !injectedInsideInnerLoop(merged) {
		t.Fatal("inner-loop injection not detected")
	}
	newF2, _ := script.Parse("t", newSrcWithWeightLog)
	merged2, _ := script.Propagate(oldF, newF2)
	if injectedInsideInnerLoop(merged2) {
		t.Fatal("outer-loop injection misdetected as inner")
	}
}

func TestStrings(t *testing.T) {
	if !strings.Contains(ckptName("epoch", 3), "epoch") {
		t.Fatal("ckpt name")
	}
}
