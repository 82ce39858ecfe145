package replay

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
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
// so far, the view a session's LatestReader gives.
func view(t *testing.T, tables *record.Tables) *record.TablesView {
	t.Helper()
	db, ok := testDBs.Load(tables)
	if !ok {
		t.Fatal("view: tables not made by newTestTables")
	}
	snap := db.(*relation.Database).SnapshotLatest()
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

// newCtx is a context of project "p" stamping records with file and tstamp.
func newCtx(tables *record.Tables, file string, tstamp int64) *Context {
	ctx := &Context{ProjID: "p", Tstamp: tstamp, Tables: tables}
	ctx.SetFilename(file)
	return ctx
}

// recordRun executes trainSrc with a Recorder at the given tstamp.
func recordRun(t *testing.T, tables *record.Tables, tstamp int64, policy CheckpointPolicy, src string) *CheckpointManager {
	t.Helper()
	ctx := newCtx(tables, "train.flow", tstamp)
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

// TestCheckpointRowFollowsDurableWrite: a checkpoint's obj_store row is
// inserted only after its blob is durable. When the blob write fails, the
// live session holds no row that no WAL record backs — a row recovery
// would drop.
func TestCheckpointRowFollowsDurableWrite(t *testing.T) {
	root := filepath.Join(t.TempDir(), "blobs")
	blobs, err := storage.NewBlobStore(root)
	if err != nil {
		t.Fatal(err)
	}
	// A regular file where the blob root was: every Put now fails.
	if err := os.Remove(root); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(root, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	tables := newTestTables(t)
	ctx := newCtx(tables, "train.flow", 1)
	ctx.Blobs = blobs
	m := NewCheckpointManager(EveryN{N: 1})
	if err := m.Begin(map[string]script.Value{"model": &toyModel{}}); err != nil {
		t.Fatal(err)
	}
	m.ClaimLoop("epoch")
	taken, err := m.MaybeCheckpoint(ctx, "epoch", 0, 1, time.Millisecond)
	if err == nil || taken {
		t.Fatalf("checkpoint over a broken blob root: taken=%v err=%v, want a failure", taken, err)
	}
	if n := view(t, tables).ObjStore.Len(); n != 0 {
		t.Fatalf("obj_store rows=%d after the failed blob write, want 0", n)
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
		versions = append(versions, commitVersion(t, repo, tables, ts, EveryN{N: 1}, trainSrc))
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

// restoreFailsModel is a toyModel whose second Restore fails.
type restoreFailsModel struct {
	toyModel
	restores int
}

func (m *restoreFailsModel) Restore(b []byte) error {
	if m.restores++; m.restores == 2 {
		return errors.New("restore failed")
	}
	return m.toyModel.Restore(b)
}

// TestHindsightCoarseReportsFailedRestore: a COARSE replay restores the
// iteration's checkpoint where the skipped inner loop ends. When that
// restore fails, the version's report carries the error instead of the
// replay carrying on from stale state.
func TestHindsightCoarseReportsFailedRestore(t *testing.T) {
	repo, tables, versions, _ := hindsightFixture(t)
	m := &restoreFailsModel{}
	setup := func(in *script.Interp) {
		in.RegisterHost("make_model", func([]script.Value, map[string]script.Value) (script.Value, error) {
			*m = restoreFailsModel{}
			return m, nil
		})
		in.RegisterHost("train_step", func(args []script.Value, _ map[string]script.Value) (script.Value, error) {
			m.Sum += float64(args[1].(int64))
			m.Steps++
			return nil, nil
		})
		in.RegisterHost("eval_model", func([]script.Value, map[string]script.Value) (script.Value, error) {
			return m.Sum, nil
		})
	}
	d := &Driver{Repo: repo, Tables: tables, View: view(t, tables), NextCtx: allocAfter(t, tables), ProjID: "p", Setup: setup, Workers: 1}
	reports, err := d.Hindsight("train.flow", newSrcWithWeightLog, versions[:1], nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := reports[0]
	if rep.Mode != "coarse" {
		t.Fatalf("mode = %s, want coarse", rep.Mode)
	}
	if rep.Err == nil || !strings.Contains(rep.Err.Error(), "restore failed") {
		t.Fatalf("report error = %v, want the failed restore", rep.Err)
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

// innerXSrc defines x only inside the inner loop.
const innerXSrc = `
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

// bestSrc carries best across epochs in a name no checkpoint holds.
const bestSrc = `
epochs = flor.arg("epochs", 4)
best = 0
net = make_model()
with flor.checkpointing(model=net) {
    for epoch in flor.loop("epoch", range(epochs)) {
        for step in flor.loop("step", range(3)) {
            train_step(net, epoch * 3 + step)
        }
        acc = eval_model(net)
        flor.log("acc", acc)
        best = best + acc
    }
}
`

// change replaces the first match of its old text with its new text.
type change struct{ old, new string }

// edit applies changes to src in order.
func edit(src string, cs ...change) string {
	for _, c := range cs {
		if !strings.Contains(src, c.old) {
			panic(fmt.Sprintf("edit: %q not in source", c.old))
		}
		src = strings.Replace(src, c.old, c.new, 1)
	}
	return src
}

// Changes that add a statement to the epoch body of the scripts above:
// before the inner loop, right after it, or after the acc log.
func beforeInner(stmt string) change {
	return change{"        for step", "        " + stmt + "\n        for step"}
}

func afterInner(stmt string) change {
	return change{"        }\n        acc", "        }\n        " + stmt + "\n        acc"}
}

func afterAcc(stmt string) change {
	return change{`flor.log("acc", acc)`, `flor.log("acc", acc)` + "\n        " + stmt}
}

// TestHindsightPlanRegressions: cases where planning a version while it
// ran (COARSE, retried FULL on error) logged what re-execution would not.
// Each version now replays once under a plan fixed from the merged script,
// and logs exactly what recording the merged source from scratch logs for
// the new names, restricted to the targets when there are any.
func TestHindsightPlanRegressions(t *testing.T) {
	withX := edit(innerXSrc, change{"net = make_model()", "x = -1\nnet = make_model()"})
	lastX := afterInner(`flor.log("last_x", x)`)
	cases := []struct {
		name     string
		old, new string
		policy   CheckpointPolicy
		targets  []int
		facts    scriptFacts
		mode     string
		run      int // checkpoint-loop iterations the plan runs
	}{{
		// COARSE ran without an error and logged the prelude's -1.
		name: "stale inner-loop variable",
		old:  withX, new: edit(withX, lastX),
		policy: EveryN{N: 1},
		facts:  scriptFacts{innerNeeded: true, carried: true}, mode: "full", run: 4,
	}, {
		// COARSE wrote e for epoch 0, failed on x, and the FULL retry
		// wrote it again.
		name: "rows of a failed attempt",
		old:  innerXSrc, new: edit(innerXSrc, lastX, beforeInner(`flor.log("e", epoch)`)),
		policy: EveryN{N: 1},
		facts:  scriptFacts{innerNeeded: true, carried: true}, mode: "full", run: 4,
	}, {
		// Iteration 0 ran only to rebuild state for 1, and wrote acc2.
		name: "targets write only target iterations",
		old:  trainSrc, new: edit(trainSrc, afterAcc(`flor.log("acc2", acc * 2)`)),
		policy: EveryN{N: 3}, targets: []int{1},
		mode: "coarse", run: 2,
	}, {
		// Target 3 started at checkpoint 2 with best = 0 and logged 66.
		name: "targets keep state carried across iterations",
		old:  bestSrc, new: edit(bestSrc, change{"best = best + acc", "best = best + acc\n        flor.log(\"best\", best)"}),
		policy: EveryN{N: 1}, targets: []int{3},
		facts: scriptFacts{carried: true}, mode: "coarse", run: 4,
	}, {
		// Target 2 ran COARSE on the model as the prelude left it: the
		// start read it before the inner loop's restore.
		name: "targets restore the state a COARSE start reads",
		old:  trainSrc, new: edit(trainSrc, beforeInner(`flor.log("start", eval_model(net))`)),
		policy: EveryN{N: 1}, targets: []int{2},
		mode: "coarse", run: 1,
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tables := newTestTables(t)
			repo := vcs.NewRepo()
			job := commitVersion(t, repo, tables, 1, tc.policy, tc.old)

			oldF, _ := script.Parse("train.flow", tc.old)
			newF, _ := script.Parse("train.flow", tc.new)
			merged, res := script.Propagate(oldF, newF)
			if got := analyze(merged, res.IsInjected); got != tc.facts {
				t.Fatalf("plan facts = %+v, want %+v", got, tc.facts)
			}

			replays := 0
			d := &Driver{Repo: repo, Tables: tables, View: view(t, tables), NextCtx: allocAfter(t, tables), ProjID: "p", Workers: 1,
				Setup: func(in *script.Interp) { replays++; freshHosts(in) }}
			reports, err := d.Hindsight("train.flow", tc.new, []VersionJob{job}, tc.targets)
			if err != nil {
				t.Fatal(err)
			}
			rep := reports[0]
			if rep.Err != nil {
				t.Fatal(rep.Err)
			}
			names := addedNames(oldF, merged)
			want := reexecuted(t, script.Print(merged), names, inTargets(tc.targets))
			got := loggedRows(t, tables, 1, names, nil)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("hindsight logged\n  %s\nre-execution logs\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
			}
			if rep.Mode != tc.mode {
				t.Fatalf("mode = %s, want %s", rep.Mode, tc.mode)
			}
			// One replay, and no iteration in it twice.
			if replays != 1 || rep.Stats.IterationsRun != tc.run || rep.Stats.IterationsRun+rep.Stats.IterationsSkipped != 4 {
				t.Fatalf("%d replays, stats %+v; want 1 replay running %d of 4 iterations", replays, rep.Stats, tc.run)
			}
			if rep.Stats.LogsEmitted != len(want) {
				t.Fatalf("logs emitted = %d, want %d", rep.Stats.LogsEmitted, len(want))
			}
		})
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
	ctx := newCtx(tables, "train.flow", 1)
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
	r := NewReplayer(newCtx(tables, "train.flow", 1), view(t, tables), allocAfter(t, tables))
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
	ctx := newCtx(tables, "f", 1)
	ctx.WAL = wal
	r := NewReplayer(ctx, view(t, tables), allocAfter(t, tables))
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
	ctx := newCtx(tables, "f", 1)
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

// TestReplayErrorNamesItsSource extends TestPropagatedErrorReportsNewLine's
// pair through Driver.Hindsight: a replay error's line counts in the new
// source when an injected statement raised it, and in the replayed version
// otherwise, and VersionReport.Err says which.
func TestReplayErrorNamesItsSource(t *testing.T) {
	const oldSrc = "xs = [1]\nflor.log(\"xs\", xs)\n"
	cases := []struct {
		name, old, new, line string
		injected             bool
	}{
		{"injected statement", oldSrc, oldSrc + "\nxs[5] = 2\n", "train.flow:4:", true},
		{"old statement", "xs = [1]\nys = xs[5]\n" + oldSrc, "xs = [1]\nys = xs[5]\n" + oldSrc + "flor.log(\"ys\", ys)\n", "train.flow:2:", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tables := newTestTables(t)
			repo := vcs.NewRepo()
			vid, err := repo.CommitFiles(map[string]string{"train.flow": tc.old}, "run", time.Unix(1, 0))
			if err != nil {
				t.Fatal(err)
			}
			d := &Driver{Repo: repo, Tables: tables, View: view(t, tables), NextCtx: allocAfter(t, tables), ProjID: "p", Workers: 1}
			reports, err := d.Hindsight("train.flow", tc.new, []VersionJob{{VID: vid, Tstamp: 1}}, nil)
			if err != nil {
				t.Fatal(err)
			}
			rep := reports[0]
			if rep.Injected != 1 {
				t.Fatalf("injected = %d, want 1", rep.Injected)
			}
			source := "train.flow@" + vcs.Short(vid) + ": "
			if tc.injected {
				source = "train.flow (new source): "
			}
			var re *script.RuntimeError
			if rep.Err == nil || !errors.As(rep.Err, &re) || !strings.HasPrefix(rep.Err.Error(), source) || !strings.Contains(rep.Err.Error(), tc.line) {
				t.Fatalf("err = %v, want a runtime error at %s prefixed %q", rep.Err, tc.line, source)
			}
		})
	}
}

// TestReplayPlanAnalysis: the static reading of a merged script that fixes
// a version's plan — FULL when the inner loops must run, carried when no
// target may start at a checkpoint.
func TestReplayPlanAnalysis(t *testing.T) {
	histSrc := edit(trainSrc,
		change{"net = make_model()", "hist = []\nnet = make_model()"},
		change{"            train_step(net, epoch * 3 + step)", "            train_step(net, epoch * 3 + step)\n            append(hist, step)"})
	withLast := edit(innerXSrc, change{"net = make_model()", "func last() {\n    return x\n}\nnet = make_model()"})
	twoInner := edit(trainSrc, afterInner("for k in flor.loop(\"eval\", range(2)) {\n            train_step(net, k)\n        }"))
	noCkpt := "for i in flor.loop(\"i\", range(3)) {\n    y = i\n}\n"
	noInner := edit(trainSrc, change{"        for step in flor.loop(\"step\", range(3)) {\n            train_step(net, epoch * 3 + step)\n        }\n", "        train_step(net, epoch)\n"})
	cases := []struct {
		name, old, new string
		want           scriptFacts
	}{
		{"step-level log", trainSrc, newSrcWithStepLog, scriptFacts{innerNeeded: true}},
		{"weight_norm(net) after the inner loop", trainSrc,
			edit(trainSrc, afterInner("norm = weight_norm(net)\n        flor.log(\"weight_norm\", norm)")), scriptFacts{}},
		{"read of an inner-loop variable", trainSrc,
			edit(trainSrc, afterAcc(`flor.log("last_step", step)`)), scriptFacts{innerNeeded: true, carried: true}},
		{"append(hist, ...) in the inner loop, read after it", histSrc,
			edit(histSrc, afterAcc(`flor.log("hist", hist)`)), scriptFacts{innerNeeded: true, carried: true}},
		{"best = best + acc", bestSrc,
			edit(bestSrc, change{"best = best + acc", "best = best + acc\n        flor.log(\"best\", best)"}), scriptFacts{carried: true}},
		{"model read before the inner loop", trainSrc,
			edit(trainSrc, beforeInner(`flor.log("start", eval_model(net))`)), scriptFacts{}},
		{"func reads an inner-loop variable", withLast,
			edit(withLast, afterAcc(`flor.log("last", last())`)), scriptFacts{innerNeeded: true, carried: true}},
		{"two inner loops", twoInner,
			edit(twoInner, afterAcc(`flor.log("acc2", acc)`)), scriptFacts{innerNeeded: true}},
		{"no checkpoint loop", noCkpt,
			edit(noCkpt, change{"    y = i\n", "    y = i\n    flor.log(\"y\", y)\n"}), scriptFacts{innerNeeded: true}},
		// Injected compounds: what analyze finds inside them counts as
		// injected, not only the statement propagation added.
		{"new if holding a log in the inner loop", trainSrc,
			edit(trainSrc, change{"step)\n        }", "step)\n            if step > 0 {\n                flor.log(\"step\", step)\n            }\n        }"}), scriptFacts{innerNeeded: true}},
		{"new func holding a log", trainSrc,
			edit(trainSrc, change{"net = make_model()", "func probe(v) {\n    flor.log(\"probe\", v)\n}\nnet = make_model()"}), scriptFacts{innerNeeded: true, carried: true}},
		{"new inner loop holding a log", noInner,
			edit(noInner, change{"        train_step(net, epoch)\n", "        train_step(net, epoch)\n        for k in flor.loop(\"probe\", range(2)) {\n            flor.log(\"probe\", k)\n        }\n"}), scriptFacts{innerNeeded: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			oldF, err := script.Parse("t", tc.old)
			if err != nil {
				t.Fatal(err)
			}
			newF, err := script.Parse("t", tc.new)
			if err != nil {
				t.Fatal(err)
			}
			merged, res := script.Propagate(oldF, newF)
			if res.Injected == 0 {
				t.Fatal("nothing injected")
			}
			if got := analyze(merged, res.IsInjected); got != tc.want {
				t.Fatalf("facts = %+v, want %+v\n%s", got, tc.want, script.Print(merged))
			}
		})
	}
}

func TestStrings(t *testing.T) {
	if !strings.Contains(ckptName("epoch", 3), "epoch") {
		t.Fatal("ckpt name")
	}
}
