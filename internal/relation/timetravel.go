package relation

import (
	"fmt"
	"sort"
	"time"
)

// EpochStamp maps one committed epoch to the wall-clock time of the commit
// that published it. The ordered list of stamps is the epoch↔timestamp map
// AS OF TIMESTAMP binary-searches; snapshot meta persists it under these
// JSON tags.
type EpochStamp struct {
	Epoch int64 `json:"e"`
	Wall  int64 `json:"w"` // commit wall clock, Unix nanoseconds UTC
}

// Restore positions the MVCC clock during recovery, before the database is
// shared with readers: the committed epoch and the epochs' commit stamps,
// together. Snapshot-loaded rows carry their historical born epochs, and tail
// replay advances from here, so the recovered database counts and stamps
// exactly the commit records of its whole history.
func (db *Database) Restore(epoch int64, stamps []EpochStamp) {
	db.clockMu.Lock()
	defer db.clockMu.Unlock()
	db.epoch.Store(epoch)
	db.stamps = append([]EpochStamp(nil), stamps...)
}

// EpochStamps returns a copy of the epochs' stamps, ascending — the map
// snapshot meta persists.
func (db *Database) EpochStamps() []EpochStamp {
	db.clockMu.Lock()
	defer db.clockMu.Unlock()
	return append([]EpochStamp(nil), db.stamps...)
}

// EpochAt returns the greatest epoch whose commit was stamped at or before t.
// A time before every stamp resolves to epoch 0, the empty database, when
// the stamps start at epoch 1. A store whose snapshot was written by the
// epoch-retention GC of earlier releases may hold stamps that start higher:
// its earlier epochs are still readable by number, but a time before its
// first stamp has no answer and is refused, never resolved to epoch 0.
func (db *Database) EpochAt(t time.Time) (int64, error) {
	w := t.UnixNano()
	db.clockMu.Lock()
	defer db.clockMu.Unlock()
	if i := sort.Search(len(db.stamps), func(i int) bool { return db.stamps[i].Wall > w }); i > 0 {
		return db.stamps[i-1].Epoch, nil
	}
	if len(db.stamps) > 0 && db.stamps[0].Epoch > 1 {
		return 0, fmt.Errorf("relation: %s precedes epoch %d, the first with a commit time; earlier epochs are readable by number only",
			t.UTC().Format(time.RFC3339Nano), db.stamps[0].Epoch)
	}
	return 0, nil
}

// SnapshotAt pins an immutable, consistent view of all tables at the given
// historical epoch. Every committed epoch is readable; epochs above the
// committed epoch (the future) and negative epochs are refused.
func (db *Database) SnapshotAt(epoch int64) (*Snapshot, error) {
	if cur := db.epoch.Load(); epoch > cur {
		return nil, fmt.Errorf("relation: epoch %d not committed yet (committed epoch is %d)", epoch, cur)
	}
	if epoch < 0 {
		return nil, fmt.Errorf("relation: epoch must be non-negative, got %d", epoch)
	}
	return db.snapshotAt(epoch), nil
}

// AsOf rebases the snapshot at a historical epoch for an `AS OF <epoch>` or
// `AS OF TIMESTAMP '<t>'` read. It takes a fresh pin from the owning
// database, which is equivalent to narrowing this snapshot's visibility:
// table states only grow, so the lower epoch's visible prefix is the same
// rows in either state. Rebasing above the pinned epoch is refused (a pinned
// view must not leak commits from after its pin), and so is an epoch not
// yet committed: a latest pin sits at the in-flight epoch, whose rows are
// not a committed state.
func (s *Snapshot) AsOf(epoch int64) (*Snapshot, error) {
	if epoch > s.epoch {
		return nil, fmt.Errorf("relation: epoch %d is beyond this snapshot (pinned at %d)", epoch, s.epoch)
	}
	return s.db.SnapshotAt(epoch)
}

// EpochAt resolves a wall-clock time for a pinned snapshot: the owning
// database's resolution, clamped to the pinned epoch — commits after the pin
// cannot be visible through it.
func (s *Snapshot) EpochAt(t time.Time) (int64, error) {
	e, err := s.db.EpochAt(t)
	return min(e, s.epoch), err
}
