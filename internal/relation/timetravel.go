package relation

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// ErrEpochRetired is the sentinel for time-travel reads below the retention
// floor: the epoch-retention GC has retired the epoch (and the stamp that
// resolves a timestamp to it), so the read is refused.
// Match with errors.Is; the concrete error is an *EpochRetiredError carrying
// the floor so callers can echo it (the HTTP layer returns it in the 400 body).
var ErrEpochRetired = errors.New("relation: epoch retired by retention GC")

// EpochRetiredError reports an AS OF epoch below the retention floor.
type EpochRetiredError struct {
	Epoch int64 // the requested epoch
	Floor int64 // the current retention floor (lowest queryable epoch)
}

func (e *EpochRetiredError) Error() string {
	return fmt.Sprintf("relation: epoch %d retired by retention GC (floor %d)", e.Epoch, e.Floor)
}

// Unwrap makes errors.Is(err, ErrEpochRetired) work.
func (e *EpochRetiredError) Unwrap() error { return ErrEpochRetired }

// EpochStamp maps one committed epoch to the wall-clock time of the commit
// that published it. The ordered list of stamps is the epoch↔timestamp map
// AS OF TIMESTAMP binary-searches; snapshot meta persists it under these
// JSON tags.
type EpochStamp struct {
	Epoch int64 `json:"e"`
	Wall  int64 `json:"w"` // commit wall clock, Unix nanoseconds UTC
}

// MinEpoch returns the retention floor: the lowest epoch time-travel reads may
// still target. Epochs below it are retired.
func (db *Database) MinEpoch() int64 { return db.minEpoch.Load() }

// Restore positions the MVCC clock during recovery, before the database is
// shared with readers: the committed epoch, the retention floor and the
// epochs' commit stamps, together. Snapshot-loaded rows carry their
// historical born epochs, and tail replay advances from here, so the
// recovered database counts and stamps exactly the commit records of its
// whole history.
func (db *Database) Restore(epoch, floor int64, stamps []EpochStamp) {
	db.clockMu.Lock()
	defer db.clockMu.Unlock()
	db.epoch.Store(epoch)
	db.minEpoch.Store(floor)
	db.stamps = append([]EpochStamp(nil), stamps...)
}

// retainedLocked returns the stamps of epochs at or above the retention
// floor. A recovered or compacting database may hold stamps of epochs the
// floor has since retired; they are never resolved to or persisted.
func (db *Database) retainedLocked() []EpochStamp {
	floor := db.minEpoch.Load()
	i := sort.Search(len(db.stamps), func(i int) bool { return db.stamps[i].Epoch >= floor })
	return db.stamps[i:]
}

// EpochStamps returns a copy of the retained epochs' stamps, ascending — the
// map snapshot meta persists.
func (db *Database) EpochStamps() []EpochStamp {
	db.clockMu.Lock()
	defer db.clockMu.Unlock()
	return append([]EpochStamp(nil), db.retainedLocked()...)
}

// EpochAt returns the greatest retained epoch whose commit was stamped at or
// before t. A time before every retained stamp resolves to epoch 0, the
// empty database, or — once the GC has retired history — to floor−1, which
// SnapshotAt then refuses as retired.
func (db *Database) EpochAt(t time.Time) int64 {
	w := t.UnixNano()
	db.clockMu.Lock()
	defer db.clockMu.Unlock()
	kept := db.retainedLocked()
	if i := sort.Search(len(kept), func(i int) bool { return kept[i].Wall > w }); i > 0 {
		return kept[i-1].Epoch
	}
	return max(db.minEpoch.Load()-1, 0)
}

// SnapshotAt pins an immutable, consistent view of all tables at the given
// historical epoch. It refuses epochs above the committed epoch (the future)
// and epochs below the retention floor (retired by GC, typed ErrEpochRetired).
// The caller must Release the snapshot; while pinned, the epoch-retention GC
// will not raise the floor past it.
func (db *Database) SnapshotAt(epoch int64) (*Snapshot, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if cur := db.epoch.Load(); epoch > cur {
		return nil, fmt.Errorf("relation: epoch %d not committed yet (committed epoch is %d)", epoch, cur)
	}
	if epoch < 0 {
		return nil, fmt.Errorf("relation: epoch must be non-negative, got %d", epoch)
	}
	if floor := db.minEpoch.Load(); epoch < floor {
		return nil, &EpochRetiredError{Epoch: epoch, Floor: floor}
	}
	return db.snapshotLocked(epoch), nil
}

// oldestPin returns the lowest epoch with a live pin, or math.MaxInt64 when
// nothing is pinned. The epoch-retention GC clamps its floor to it.
func (db *Database) oldestPin() int64 {
	db.pinMu.Lock()
	defer db.pinMu.Unlock()
	oldest := int64(math.MaxInt64)
	for e := range db.pinned {
		if e < oldest {
			oldest = e
		}
	}
	return oldest
}

// GCBelow retires epochs below the requested floor: it clamps the floor to the
// committed epoch, the oldest live pin, and the current floor (the floor never
// moves backwards), publishes the clamped floor and drops the stamps of
// retired epochs. Tables are insert-only, so no row version is ever
// invisible at every retained epoch and there is nothing to reclaim. It
// returns the floor actually applied.
//
// Holding db.mu for writing excludes concurrent snapshotLocked calls, so no
// reader can pin an epoch below the new floor while the floor is moving.
func (db *Database) GCBelow(floor int64) int64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	floor = max(min(floor, db.epoch.Load(), db.oldestPin()), db.minEpoch.Load())
	db.clockMu.Lock()
	db.minEpoch.Store(floor)
	db.stamps = append(db.stamps[:0], db.retainedLocked()...)
	db.clockMu.Unlock()
	return floor
}

// AsOf rebases the snapshot at a historical epoch for an `AS OF <epoch>` or
// `AS OF TIMESTAMP '<t>'` read, returning a release function the caller must
// invoke when done. Rebasing to the snapshot's own epoch is free; rebasing
// lower takes a fresh pin from the owning database, which is equivalent to
// narrowing this snapshot's visibility: table states only grow, so the lower
// epoch's visible prefix is the same rows in either state. Rebasing above the pinned epoch is refused: a pinned view must not leak
// commits from after its pin.
func (s *Snapshot) AsOf(epoch int64) (*Snapshot, func(), error) {
	if epoch == s.epoch {
		return s, func() {}, nil
	}
	if epoch > s.epoch {
		return nil, nil, fmt.Errorf("relation: epoch %d is beyond this snapshot (pinned at %d)", epoch, s.epoch)
	}
	snap, err := s.db.SnapshotAt(epoch)
	if err != nil {
		return nil, nil, err
	}
	return snap, snap.Release, nil
}

// EpochAt resolves a wall-clock time for a pinned snapshot: the owning
// database's resolution, clamped to the pinned epoch — commits after the pin
// cannot be visible through it.
func (s *Snapshot) EpochAt(t time.Time) int64 {
	return min(s.db.EpochAt(t), s.epoch)
}
