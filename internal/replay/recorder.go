package replay

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"flordb/internal/record"
	"flordb/internal/script"
)

// Recorder implements script.FlorHooks for recording executions: the
// "record" half of record-replay. All flor.* calls are shredded into the
// Figure-1 tables and appended to the WAL; the checkpoint loop is snapshotted
// per the manager's policy.
type Recorder struct {
	Ctx  *Context
	Ckpt *CheckpointManager
	// Args maps command-line overrides (name -> raw text); flor.arg consults
	// it before falling back to the default.
	Args map[string]string
	// OnCommit is invoked by flor.commit(); the owning session supplies
	// version-control integration.
	OnCommit func() error

	ctxCounter int64
	ctxStack   []int64
	loopDepth  int
}

// NewRecorder builds a recorder over a context.
func NewRecorder(ctx *Context, ckpt *CheckpointManager) *Recorder {
	if ckpt == nil {
		ckpt = NewCheckpointManager(nil)
	}
	return &Recorder{Ctx: ctx, Ckpt: ckpt}
}

func (r *Recorder) curCtx() int64 {
	if len(r.ctxStack) == 0 {
		return 0
	}
	return r.ctxStack[len(r.ctxStack)-1]
}

// NextCtx allocates a fresh ctx_id. It is the session's one allocator:
// recording and hindsight replay (Driver.NextCtx) both draw from it, so
// their loops rows never share an id.
func (r *Recorder) NextCtx() int64 { return atomic.AddInt64(&r.ctxCounter, 1) }

// SetCtxCounter fast-forwards the ctx allocator (used after recovery so new
// ctx_ids don't collide with historical ones).
func (r *Recorder) SetCtxCounter(n int64) { atomic.StoreInt64(&r.ctxCounter, n) }

// Log implements script.FlorHooks.
func (r *Recorder) Log(name string, v script.Value) (script.Value, error) {
	if err := r.Ctx.writeLog(r.curCtx(), name, v); err != nil {
		return nil, err
	}
	return v, nil
}

// Arg implements script.FlorHooks: resolve from CLI overrides or default,
// coerce to the default's type, and record the resolution.
func (r *Recorder) Arg(name string, def script.Value) (script.Value, error) {
	resolved := def
	if raw, ok := r.Args[name]; ok {
		v, err := coerceArg(raw, def)
		if err != nil {
			return nil, fmt.Errorf("flor.arg %q: %w", name, err)
		}
		resolved = v
	}
	text, _ := formatScriptValue(resolved)
	if err := r.Ctx.write(&record.ArgRecord{
		Kind: record.KindArg, ProjID: r.Ctx.ProjID, Tstamp: r.Ctx.TstampNow(),
		Filename: r.Ctx.Filename, Name: name, Value: text,
	}); err != nil {
		return nil, err
	}
	return resolved, nil
}

// LoopBegin implements script.FlorHooks.
func (r *Recorder) LoopBegin(name string, vals []script.Value) (script.LoopSession, error) {
	isCkptLoop := r.Ckpt.ClaimLoop(name)
	r.loopDepth++
	return &recordSession{r: r, name: name, isCkptLoop: isCkptLoop}, nil
}

// IterationBegin implements script.FlorHooks (flor.iteration context).
func (r *Recorder) IterationBegin(name string, val script.Value) error {
	ctx := r.NextCtx()
	if err := r.Ctx.writeLoop(ctx, r.curCtx(), name, -1, val); err != nil {
		return err
	}
	r.ctxStack = append(r.ctxStack, ctx)
	return nil
}

// IterationEnd implements script.FlorHooks.
func (r *Recorder) IterationEnd() error {
	if len(r.ctxStack) > 0 {
		r.ctxStack = r.ctxStack[:len(r.ctxStack)-1]
	}
	return nil
}

// CheckpointingBegin implements script.FlorHooks.
func (r *Recorder) CheckpointingBegin(objs map[string]script.Value) error {
	return r.Ckpt.Begin(objs)
}

// CheckpointingEnd implements script.FlorHooks.
func (r *Recorder) CheckpointingEnd() error {
	r.Ckpt.End()
	return nil
}

// Commit implements script.FlorHooks. Without OnCommit it does nothing: a
// commit is the owning session's — version store, ts2vid row, WAL commit
// record and epoch — never the recorder's.
func (r *Recorder) Commit() error {
	if r.OnCommit == nil {
		return nil
	}
	return r.OnCommit()
}

// recordSession is the per-loop recording session.
type recordSession struct {
	r          *Recorder
	name       string
	isCkptLoop bool
	bodyStart  time.Time
	curIterCtx int64
}

// Decide implements script.LoopSession: always run; allocate the iteration's
// ctx_id and write the loops row.
func (s *recordSession) Decide(i int, v script.Value) (bool, error) {
	ctx := s.r.NextCtx()
	if err := s.r.Ctx.writeLoop(ctx, s.r.curCtx(), s.name, int64(i), v); err != nil {
		return false, err
	}
	s.r.ctxStack = append(s.r.ctxStack, ctx)
	s.curIterCtx = ctx
	s.bodyStart = time.Now()
	return true, nil
}

// PostIter implements script.LoopSession: pop the iteration context and
// maybe checkpoint.
func (s *recordSession) PostIter(i int, _ script.Value) error {
	if len(s.r.ctxStack) > 0 {
		s.r.ctxStack = s.r.ctxStack[:len(s.r.ctxStack)-1]
	}
	if s.isCkptLoop {
		_, err := s.r.Ckpt.MaybeCheckpoint(s.r.Ctx, s.name, i, s.curIterCtx, time.Since(s.bodyStart))
		return err
	}
	return nil
}

// End implements script.LoopSession.
func (s *recordSession) End() error {
	s.r.loopDepth--
	if s.isCkptLoop {
		s.r.Ckpt.ReleaseLoop(s.name)
	}
	return nil
}

// formatScriptValue converts a Flow value into the logs.value text column
// plus type tag.
func formatScriptValue(v script.Value) (string, record.ValueType) {
	switch x := v.(type) {
	case nil:
		return "", record.VTText
	case bool:
		if x {
			return "true", record.VTBool
		}
		return "false", record.VTBool
	case int64:
		return strconv.FormatInt(x, 10), record.VTInt
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64), record.VTFloat
	case string:
		return x, record.VTText
	default:
		return script.Repr(v), record.VTText
	}
}

// coerceArg parses a raw CLI string into the type of the default value.
func coerceArg(raw string, def script.Value) (script.Value, error) {
	switch def.(type) {
	case int64:
		n, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("expected integer, got %q", raw)
		}
		return n, nil
	case float64:
		f, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return nil, fmt.Errorf("expected float, got %q", raw)
		}
		return f, nil
	case bool:
		switch raw {
		case "true", "1":
			return true, nil
		case "false", "0":
			return false, nil
		}
		return nil, fmt.Errorf("expected bool, got %q", raw)
	default:
		return raw, nil
	}
}
