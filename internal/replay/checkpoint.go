package replay

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"flordb/internal/record"
	"flordb/internal/script"
	"flordb/internal/storage"
)

// CkptBlobName is the obj_store value_name of a checkpoint of the named loop
// at the given iteration; other components (model registry queries, the
// CLI) load checkpoints by it.
func CkptBlobName(loopName string, iter int) string {
	return fmt.Sprintf("ckpt::%s::%d", loopName, iter)
}

// snapshotEntry is one checkpointed object in the serialized blob.
type snapshotEntry struct {
	Name string `json:"name"`
	Data string `json:"data"` // base64 of the object's Snapshot()
}

// CheckpointManager serializes and restores the objects registered by a
// flor.checkpointing scope.
type CheckpointManager struct {
	Policy CheckpointPolicy

	objs     map[string]script.Value
	loopName string // checkpoint loop, assigned at first LoopBegin in scope
	active   bool

	lastCkptDur time.Duration
	// Taken records which iterations were checkpointed (for tests/benches).
	Taken []int
}

// NewCheckpointManager creates a manager with the given policy (nil means
// adaptive with 5% budget).
func NewCheckpointManager(policy CheckpointPolicy) *CheckpointManager {
	if policy == nil {
		policy = &Adaptive{Epsilon: 0.05}
	}
	return &CheckpointManager{Policy: policy}
}

// Begin enters a checkpointing scope with the given objects. Objects must
// implement script.Snapshotter.
func (m *CheckpointManager) Begin(objs map[string]script.Value) error {
	for name, v := range objs {
		if _, ok := v.(script.Snapshotter); !ok {
			return fmt.Errorf("replay: checkpointing object %q (%T) does not implement Snapshotter", name, v)
		}
	}
	m.objs = objs
	m.active = true
	m.loopName = ""
	return nil
}

// End leaves the checkpointing scope.
func (m *CheckpointManager) End() {
	m.active = false
	m.objs = nil
	m.loopName = ""
}

// Active reports whether a scope is open.
func (m *CheckpointManager) Active() bool { return m.active }

// ClaimLoop assigns the checkpoint loop if unassigned; it returns true when
// the named loop is (or becomes) the checkpoint loop.
func (m *CheckpointManager) ClaimLoop(name string) bool {
	if !m.active {
		return false
	}
	if m.loopName == "" {
		m.loopName = name
	}
	return m.loopName == name
}

// ReleaseLoop clears the loop claim when the checkpoint loop ends.
func (m *CheckpointManager) ReleaseLoop(name string) {
	if m.loopName == name {
		m.loopName = ""
	}
}

// Serialize captures the current state of all registered objects into one
// blob.
func (m *CheckpointManager) Serialize() ([]byte, error) {
	entries := make([]snapshotEntry, 0, len(m.objs))
	for name, v := range m.objs {
		snap := v.(script.Snapshotter)
		data, err := snap.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("replay: snapshot %q: %w", name, err)
		}
		entries = append(entries, snapshotEntry{Name: name, Data: base64.StdEncoding.EncodeToString(data)})
	}
	// Deterministic order for stable blobs.
	slices.SortFunc(entries, func(a, b snapshotEntry) int { return strings.Compare(a.Name, b.Name) })
	return json.Marshal(entries)
}

// RestoreObjects rehydrates objects from a serialized checkpoint blob.
// Objects present in the blob but not requested are ignored; requested
// objects missing from the blob are an error.
func RestoreObjects(blob []byte, objs map[string]script.Value) error {
	return (&CheckpointManager{}).RestoreInto(blob, objs)
}

// RestoreInto rehydrates registered objects from a serialized blob. Objects
// present in the blob but not registered are ignored; registered objects
// missing from the blob are an error.
func (m *CheckpointManager) RestoreInto(blob []byte, objs map[string]script.Value) error {
	var entries []snapshotEntry
	if err := json.Unmarshal(blob, &entries); err != nil {
		return fmt.Errorf("replay: decode checkpoint: %w", err)
	}
	byName := make(map[string]snapshotEntry, len(entries))
	for _, e := range entries {
		byName[e.Name] = e
	}
	for name, v := range objs {
		e, ok := byName[name]
		if !ok {
			return fmt.Errorf("replay: checkpoint missing object %q", name)
		}
		data, err := base64.StdEncoding.DecodeString(e.Data)
		if err != nil {
			return fmt.Errorf("replay: checkpoint %q: %w", name, err)
		}
		snap, ok := v.(script.Snapshotter)
		if !ok {
			return fmt.Errorf("replay: object %q is not a Snapshotter", name)
		}
		if err := snap.Restore(data); err != nil {
			return fmt.Errorf("replay: restore %q: %w", name, err)
		}
	}
	return nil
}

// MaybeCheckpoint consults the policy and, when told to, writes a snapshot
// of the registered objects as one checkpoint record, which carries the
// bytes through the log into obj_store like any other record. Returns
// whether a checkpoint was taken.
func (m *CheckpointManager) MaybeCheckpoint(ctx *Context, loopName string, iter int, ctxID int64, bodyDur time.Duration) (bool, error) {
	if !m.active || m.loopName != loopName {
		return false, nil
	}
	if !m.Policy.ShouldCheckpoint(iter, bodyDur, m.lastCkptDur) {
		return false, nil
	}
	start := time.Now()
	blob, err := m.Serialize()
	if err != nil {
		return false, err
	}
	if err := ctx.write(&record.CkptRecord{
		Kind: record.KindCkpt, ProjID: ctx.ProjID, Tstamp: ctx.TstampNow(),
		Filename: ctx.Filename(), CtxID: ctxID, Name: CkptBlobName(loopName, iter), Data: blob,
	}); err != nil {
		return false, err
	}
	m.lastCkptDur = time.Since(start)
	if ad, ok := m.Policy.(*Adaptive); ok {
		ad.RecordCheckpointCost(m.lastCkptDur)
	}
	m.Taken = append(m.Taken, iter)
	return true, nil
}

// Context carries the shared state of one FlorDB execution (recording or
// replay): identity, destination tables, and durability sinks.
type Context struct {
	ProjID string
	// filename is the script file records are stamped with. The owning
	// session may set it while other goroutines record; go through
	// Filename/SetFilename.
	filename atomic.Pointer[string]
	// Tstamp is the logical timestamp records are stamped with. The owning
	// session advances it on commit, possibly while other goroutines record;
	// concurrent readers must go through TstampNow/SetTstamp.
	Tstamp int64
	Tables *record.Tables
	WAL    *storage.WAL // optional
}

// TstampNow atomically reads the logical timestamp.
func (c *Context) TstampNow() int64 { return atomic.LoadInt64(&c.Tstamp) }

// SetTstamp atomically advances the logical timestamp.
func (c *Context) SetTstamp(ts int64) { atomic.StoreInt64(&c.Tstamp, ts) }

// Filename atomically reads the file name records are stamped with.
func (c *Context) Filename() string {
	if p := c.filename.Load(); p != nil {
		return *p
	}
	return ""
}

// SetFilename atomically replaces the file name records are stamped with.
func (c *Context) SetFilename(name string) { c.filename.Store(&name) }

// write appends rec to the WAL when there is one, then applies it to the
// tables. Every record recording or replay makes — log, loop, arg and
// checkpoint — takes this path, so every row the tables gain is a row
// recovery rebuilds: a failed append leaves no row, and rec's strings are
// first made what its WAL line carries (record.Sanitize).
func (c *Context) write(rec any) error {
	record.Sanitize(rec)
	if c.WAL != nil {
		if err := c.WAL.Append(rec); err != nil {
			return err
		}
	}
	return c.Tables.Apply(rec)
}

// writeLog writes the logs row of one flor.log value in loop context ctxID.
func (c *Context) writeLog(ctxID int64, name string, v script.Value) error {
	text, vt := formatScriptValue(v)
	return c.write(&record.LogRecord{
		Kind: record.KindLog, ProjID: c.ProjID, Tstamp: c.TstampNow(),
		Filename: c.Filename(), CtxID: ctxID, ValueName: name,
		Value: text, ValueType: vt, Wall: time.Now().UTC(),
	})
}

// writeLoop writes the loops row allocating context ctxID under parent: one
// iteration of a flor.loop, or a flor.iteration context when iter is -1.
func (c *Context) writeLoop(ctxID, parent int64, name string, iter int64, val script.Value) error {
	text, _ := formatScriptValue(val)
	return c.write(&record.LoopRecord{
		Kind: record.KindLoop, ProjID: c.ProjID, Tstamp: c.TstampNow(),
		Filename: c.Filename(), CtxID: ctxID, ParentCtxID: parent,
		LoopName: name, LoopIter: iter, IterValue: text, Wall: time.Now().UTC(),
	})
}
