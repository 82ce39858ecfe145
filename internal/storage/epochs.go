package storage

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"flordb/internal/record"
)

// EpochIndex is the in-memory epoch↔commit-timestamp map behind
// `AS OF TIMESTAMP` resolution. Every commit appends one stamp (the epoch the
// commit published and its wall-clock time); resolution binary-searches for
// the greatest epoch committed at or before the requested time. The index is
// persisted in snapshot meta (record.SnapshotMeta.Epochs) and rebuilt through
// WAL replay, which carries the commit wall clock in each commit record.
type EpochIndex struct {
	mu     sync.Mutex
	stamps []record.EpochStamp // ascending Epoch; nondecreasing Wall
}

// NewEpochIndex returns an empty index.
func NewEpochIndex() *EpochIndex { return &EpochIndex{} }

// load replaces the index contents with stamps recovered from snapshot meta.
func (x *EpochIndex) load(stamps []record.EpochStamp) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.stamps = append(x.stamps[:0], stamps...)
}

// Note records the wall-clock time of the commit that published epoch.
// Out-of-order or duplicate epochs are ignored; wall clocks are clamped to be
// nondecreasing so resolution can binary-search them even across a clock step.
func (x *EpochIndex) Note(epoch int64, wall time.Time) {
	w := wall.UnixNano()
	x.mu.Lock()
	defer x.mu.Unlock()
	if n := len(x.stamps); n > 0 {
		if epoch <= x.stamps[n-1].Epoch {
			return
		}
		if w < x.stamps[n-1].Wall {
			w = x.stamps[n-1].Wall
		}
	}
	x.stamps = append(x.stamps, record.EpochStamp{Epoch: epoch, Wall: w})
}

// Resolve returns the greatest epoch whose commit happened at or before ts.
// ok is false when ts precedes every retained stamp — the caller decides
// whether that means "the empty database at epoch 0" (nothing was ever
// committed or retired before ts) or an epoch below the retention floor.
func (x *EpochIndex) Resolve(ts time.Time) (epoch int64, ok bool) {
	w := ts.UnixNano()
	x.mu.Lock()
	defer x.mu.Unlock()
	i := sort.Search(len(x.stamps), func(i int) bool { return x.stamps[i].Wall > w })
	if i == 0 {
		return 0, false
	}
	return x.stamps[i-1].Epoch, true
}

// TrimBelow drops stamps for epochs below floor; the retention GC calls it so
// the persisted map stays bounded by the retention window.
func (x *EpochIndex) TrimBelow(floor int64) {
	x.mu.Lock()
	defer x.mu.Unlock()
	i := sort.Search(len(x.stamps), func(i int) bool { return x.stamps[i].Epoch >= floor })
	if i > 0 {
		x.stamps = append(x.stamps[:0], x.stamps[i:]...)
	}
}

// Stamps returns a copy of the retained stamps, ascending by epoch — the
// value persisted into snapshot meta.
func (x *EpochIndex) Stamps() []record.EpochStamp {
	x.mu.Lock()
	defer x.mu.Unlock()
	return append([]record.EpochStamp(nil), x.stamps...)
}

// retentionManifest is the small durable sidecar recording the epoch
// retention floor chosen by the last GC run. The log consumer reads it into
// every State it opens: compaction then folds retired versions out of the
// next snapshot, and a restarted session refuses AS OF below the floor even
// before any post-GC snapshot exists.
type retentionManifest struct {
	MinEpoch int64 `json:"min_epoch"`
}

// retentionPath returns the manifest path for a WAL. The non-numeric suffix
// keeps it invisible to the segment/snapshot listings.
func retentionPath(walPath string) string { return walPath + ".retention" }

// WriteRetention durably replaces the WAL's retention floor through its FS:
// WriteFileAtomic, the same temp, fsync, rename, directory-fsync install as
// snapshots.
func (w *WAL) WriteRetention(floor int64) error {
	data, err := json.Marshal(retentionManifest{MinEpoch: floor})
	if err == nil {
		err = WriteFileAtomic(w.fs, retentionPath(w.path), data, true)
	}
	if err != nil {
		return fmt.Errorf("storage: retention manifest: %w", err)
	}
	return nil
}

// readRetention loads the persisted retention floor; a missing manifest is
// floor 0.
func readRetention(walPath string) (int64, error) {
	var m retentionManifest
	data, err := os.ReadFile(retentionPath(walPath))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("storage: retention manifest: %w", err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return 0, fmt.Errorf("storage: retention manifest: %w", err)
	}
	return m.MinEpoch, nil
}
