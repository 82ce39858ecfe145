package replay

import (
	"strconv"

	"flordb/internal/record"
	"flordb/internal/relation"
	"flordb/internal/script"
)

// ReplayStats counts what a replay actually did — the quantities behind the
// paper's claim that hindsight replay is far cheaper than re-execution.
type ReplayStats struct {
	IterationsRun     int
	IterationsSkipped int
	InnerLoopsSkipped int
	Restores          int
	LogsEmitted       int
	LogsSuppressed    int
}

// Replayer implements script.FlorHooks for hindsight replay of one
// historical version: flor.arg resolves from the recorded args, the
// checkpoint loop skips iterations not needed for the new statements
// (restoring object state from checkpoints), and only the newly injected
// value names are recorded.
type Replayer struct {
	Ctx  *Context // Tstamp is the HISTORICAL version's timestamp
	Ckpt *CheckpointManager
	// View is the pinned snapshot history is read from: args, loop
	// contexts and checkpoints. Backfilled rows are written through Ctx.
	View *record.TablesView

	// NewNames restricts which flor.log names are recorded; nil records all
	// (used when replaying a version that never ran).
	NewNames map[string]bool
	// Targets restricts which checkpoint-loop iterations are materialized;
	// nil means all iterations.
	Targets map[int]bool
	// InnerNeeded forces FULL re-execution of target iterations (set when
	// an injected statement lives inside an inner loop; otherwise COARSE
	// mode restores the iteration's checkpoint and skips the inner loop).
	InnerNeeded bool

	Stats ReplayStats

	argLookup map[string]string
	ctxLookup map[string]int64
	ctxStack  []int64

	outerActive  bool
	outerIter    int
	skipInner    bool
	lastRestored int

	// nextCtx allocates fresh ctx ids for loop iterations that have no
	// recorded row (e.g. replaying a version that was never recorded).
	nextCtx func() int64
}

// NewReplayer builds a replayer for the version at ctx.Tstamp, loading the
// historical args and loop contexts from view. nextCtx allocates the ids of
// loop contexts the replay creates (Recorder.NextCtx).
func NewReplayer(ctx *Context, view *record.TablesView, nextCtx func() int64) *Replayer {
	r := &Replayer{
		Ctx:          ctx,
		Ckpt:         NewCheckpointManager(Never{}), // no re-checkpointing during replay
		View:         view,
		argLookup:    make(map[string]string),
		ctxLookup:    make(map[string]int64),
		lastRestored: -1,
		nextCtx:      nextCtx,
	}
	// Historical flor.arg resolutions.
	view.Args.Scan(func(_ relation.RowID, row relation.Row) bool {
		if row[0].AsText() == ctx.ProjID && row[1].AsInt() == ctx.TstampNow() {
			r.argLookup[row[3].AsText()] = row[4].AsText()
		}
		return true
	})
	// Historical loop contexts: (parent_ctx, loop_name, iteration) -> ctx_id,
	// plus value-keyed entries for flor.iteration contexts. The parent ctx is
	// part of the key because inner loops restart per outer iteration (every
	// document has a page 0).
	view.Loops.Scan(func(_ relation.RowID, row relation.Row) bool {
		if row[0].AsText() == ctx.ProjID && row[1].AsInt() == ctx.TstampNow() {
			name := row[5].AsText()
			iter := row[6].AsInt()
			ctxID := row[3].AsInt()
			parent := row[4].AsInt()
			r.ctxLookup[loopKey(parent, name, iter)] = ctxID
			if iter < 0 {
				r.ctxLookup[iterKey(parent, name, row[7].AsText())] = ctxID
			}
		}
		return true
	})
	return r
}

func loopKey(parent int64, name string, iter int64) string {
	return strconv.FormatInt(parent, 10) + "\x1f" + name + "\x1f" + strconv.FormatInt(iter, 10)
}

func iterKey(parent int64, name, value string) string {
	return strconv.FormatInt(parent, 10) + "\x1f" + name + "\x1fval:" + value
}

func (r *Replayer) curCtx() int64 {
	if len(r.ctxStack) == 0 {
		return 0
	}
	return r.ctxStack[len(r.ctxStack)-1]
}

// resolveCtx finds the recorded ctx_id for a loop iteration or allocates a
// fresh one (writing the loops row so the new provenance is queryable).
func (r *Replayer) resolveCtx(loopName string, iter int64, val script.Value) (int64, error) {
	if id, ok := r.ctxLookup[loopKey(r.curCtx(), loopName, iter)]; ok {
		return id, nil
	}
	id := r.nextCtx()
	if err := r.Ctx.writeLoop(id, r.curCtx(), loopName, iter, val); err != nil {
		return 0, err
	}
	r.ctxLookup[loopKey(r.curCtx(), loopName, iter)] = id
	return id, nil
}

// Log implements script.FlorHooks: record only newly injected names, with
// the historical timestamp and the original loop context.
func (r *Replayer) Log(name string, v script.Value) (script.Value, error) {
	if r.NewNames != nil && !r.NewNames[name] {
		r.Stats.LogsSuppressed++
		return v, nil
	}
	if err := r.Ctx.writeLog(r.curCtx(), name, v); err != nil {
		return nil, err
	}
	r.Stats.LogsEmitted++
	return v, nil
}

// Arg implements script.FlorHooks: return the historical value.
func (r *Replayer) Arg(name string, def script.Value) (script.Value, error) {
	raw, ok := r.argLookup[name]
	if !ok {
		return def, nil
	}
	v, err := coerceArg(raw, def)
	if err != nil {
		// Historical value of a different type than today's default: fall
		// back to the raw text.
		return raw, nil
	}
	return v, nil
}

// LoopBegin implements script.FlorHooks.
func (r *Replayer) LoopBegin(name string, vals []script.Value) (script.LoopSession, error) {
	if r.Ckpt.Active() && r.Ckpt.ClaimLoop(name) && !r.outerActive {
		// This is the checkpoint loop: plan which iterations run.
		plan := r.planOuter(name, len(vals))
		return &replayOuterSession{r: r, name: name, plan: plan}, nil
	}
	if r.outerActive && r.skipInner {
		if blob, ok := r.ckptBlob(r.ckptLoopName(), r.outerIter); ok {
			return &replaySkipInnerSession{r: r, blob: blob}, nil
		}
	}
	return &replayRunAllSession{r: r, name: name}, nil
}

func (r *Replayer) ckptLoopName() string { return r.Ckpt.loopName }

func (r *Replayer) ckptBlob(loopName string, iter int) ([]byte, bool) {
	return r.View.GetBlobExact(r.Ctx.ProjID, ckptName(loopName, iter), r.Ctx.TstampNow())
}

// outerPlan describes, per iteration, whether it runs and in which mode.
type outerPlan struct {
	run    []bool
	coarse []bool // run with inner-loop skip + restore ckpt[i]
}

// planOuter computes the run set: COARSE targets run alone (their own
// checkpoint restores end-of-iteration state); FULL targets run together
// with the gap iterations back to the nearest prior checkpoint.
func (r *Replayer) planOuter(loopName string, n int) outerPlan {
	plan := outerPlan{run: make([]bool, n), coarse: make([]bool, n)}
	hasCkpt := make([]bool, n)
	for i := 0; i < n; i++ {
		_, hasCkpt[i] = r.ckptBlob(loopName, i)
	}
	for t := 0; t < n; t++ {
		if r.Targets != nil && !r.Targets[t] {
			continue
		}
		if !r.InnerNeeded && hasCkpt[t] {
			plan.run[t] = true
			plan.coarse[t] = true
			continue
		}
		// FULL: run from the nearest checkpoint strictly before t.
		start := 0
		for j := t - 1; j >= 0; j-- {
			if hasCkpt[j] {
				start = j + 1
				break
			}
		}
		for j := start; j <= t; j++ {
			if !plan.coarse[j] {
				plan.run[j] = true
			}
			// A gap iteration that was planned COARSE must be upgraded to
			// FULL so it recomputes state for the target after it.
			if j < t && plan.coarse[j] {
				plan.coarse[j] = false
				plan.run[j] = true
			}
		}
	}
	return plan
}

// IterationBegin implements script.FlorHooks: reuse the recorded ctx for the
// same (name, value) pair or create a new one.
func (r *Replayer) IterationBegin(name string, val script.Value) error {
	text, _ := formatScriptValue(val)
	id, ok := r.ctxLookup[iterKey(r.curCtx(), name, text)]
	if !ok {
		id = r.nextCtx()
		if err := r.Ctx.writeLoop(id, r.curCtx(), name, -1, val); err != nil {
			return err
		}
		r.ctxLookup[iterKey(r.curCtx(), name, text)] = id
	}
	r.ctxStack = append(r.ctxStack, id)
	return nil
}

// IterationEnd implements script.FlorHooks.
func (r *Replayer) IterationEnd() error {
	if len(r.ctxStack) > 0 {
		r.ctxStack = r.ctxStack[:len(r.ctxStack)-1]
	}
	return nil
}

// CheckpointingBegin implements script.FlorHooks: register objects for
// restore (no new checkpoints are taken during replay).
func (r *Replayer) CheckpointingBegin(objs map[string]script.Value) error {
	return r.Ckpt.Begin(objs)
}

// CheckpointingEnd implements script.FlorHooks.
func (r *Replayer) CheckpointingEnd() error {
	r.Ckpt.End()
	return nil
}

// Commit implements script.FlorHooks: commits are not re-executed during
// replay (the version already exists).
func (r *Replayer) Commit() error { return nil }

// ---------- loop sessions ----------

// replayOuterSession drives the checkpoint loop with skip/restore logic.
type replayOuterSession struct {
	r    *Replayer
	name string
	plan outerPlan
}

// Decide implements script.LoopSession.
func (s *replayOuterSession) Decide(i int, v script.Value) (bool, error) {
	r := s.r
	if i >= len(s.plan.run) || !s.plan.run[i] {
		r.Stats.IterationsSkipped++
		return false, nil
	}
	// FULL iterations need end-of-(i-1) state.
	if !s.plan.coarse[i] && i > 0 && r.lastRestored != i-1 {
		if blob, ok := r.ckptBlob(s.name, i-1); ok {
			if err := r.Ckpt.RestoreInto(blob, r.Ckpt.objs); err != nil {
				return false, err
			}
			r.Stats.Restores++
			r.lastRestored = i - 1
		}
	}
	ctxID, err := r.resolveCtx(s.name, int64(i), v)
	if err != nil {
		return false, err
	}
	r.ctxStack = append(r.ctxStack, ctxID)
	r.outerActive = true
	r.outerIter = i
	r.skipInner = s.plan.coarse[i]
	r.Stats.IterationsRun++
	return true, nil
}

// PostIter implements script.LoopSession.
func (s *replayOuterSession) PostIter(i int, _ script.Value) error {
	r := s.r
	if len(r.ctxStack) > 0 {
		r.ctxStack = r.ctxStack[:len(r.ctxStack)-1]
	}
	r.outerActive = false
	r.skipInner = false
	r.lastRestored = i
	return nil
}

// End implements script.LoopSession.
func (s *replayOuterSession) End() error {
	s.r.outerActive = false
	s.r.skipInner = false
	s.r.Ckpt.ReleaseLoop(s.name)
	return nil
}

// replaySkipInnerSession skips every iteration of an inner loop and restores
// the enclosing iteration's checkpoint at the end — COARSE-mode replay.
type replaySkipInnerSession struct {
	r    *Replayer
	blob []byte
}

// Decide implements script.LoopSession.
func (s *replaySkipInnerSession) Decide(int, script.Value) (bool, error) { return false, nil }

// PostIter implements script.LoopSession.
func (s *replaySkipInnerSession) PostIter(int, script.Value) error { return nil }

// End implements script.LoopSession: the restore point.
func (s *replaySkipInnerSession) End() error {
	if err := s.r.Ckpt.RestoreInto(s.blob, s.r.Ckpt.objs); err != nil {
		return err
	}
	s.r.Stats.InnerLoopsSkipped++
	s.r.Stats.Restores++
	return nil
}

// replayRunAllSession runs a non-checkpoint loop in full, mapping iterations
// onto their recorded contexts.
type replayRunAllSession struct {
	r    *Replayer
	name string
}

// Decide implements script.LoopSession.
func (s *replayRunAllSession) Decide(i int, v script.Value) (bool, error) {
	ctxID, err := s.r.resolveCtx(s.name, int64(i), v)
	if err != nil {
		return false, err
	}
	s.r.ctxStack = append(s.r.ctxStack, ctxID)
	return true, nil
}

// PostIter implements script.LoopSession.
func (s *replayRunAllSession) PostIter(int, script.Value) error {
	if len(s.r.ctxStack) > 0 {
		s.r.ctxStack = s.r.ctxStack[:len(s.r.ctxStack)-1]
	}
	return nil
}

// End implements script.LoopSession.
func (s *replayRunAllSession) End() error { return nil }

// MaxCtxID scans the loops table for the highest ctx_id visible in the view,
// so a session can seed its allocator past every recovered one.
func MaxCtxID(tables *record.TablesView) int64 {
	var maxID int64
	tables.Loops.Scan(func(_ relation.RowID, row relation.Row) bool {
		if id := row[3].AsInt(); id > maxID {
			maxID = id
		}
		return true
	})
	return maxID
}
