package storage

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"flordb/internal/record"
	"flordb/internal/relation"
)

// Compactor folds WAL history into a durable table snapshot: it seals the
// active file, replays the sealed segments a previous snapshot does not
// already cover into a fresh set of tables, writes a new snapshot, and
// deletes the covered segments plus superseded snapshots. The new snapshot
// copies the previous one's complete pages byte for byte and encodes only
// the pages the delta touched, so the write is O(delta); the tables carry no
// secondary indexes, since nothing queries them.
//
// Compaction never reads a live session's in-memory tables: the snapshot is
// built purely from immutable inputs (the previous snapshot and sealed
// segments), so it is safe to run while other goroutines append to the
// active file — they only contend on the brief Seal step. Crash-safety
// follows the ordering invariants of DESIGN.md §7: the snapshot is written
// to a temp file and Installed (fsync, rename, directory fsync) before
// anything is deleted. Every write goes through the WAL's FS.
type Compactor struct {
	WAL   *WAL
	Blobs *BlobStore // reads the checkpoint lines of older releases (State.Blobs)

	// RetainSegments keeps the newest N sealed segments on disk even once a
	// snapshot covers them, so a replica that has not connected yet can still
	// catch up over segments instead of a full snapshot re-seed. 0 keeps none
	// beyond what RetainFloor demands.
	RetainSegments int
	// RetainFloor, when set, returns the lowest sealed-segment sequence that
	// must survive compaction — replication supplies the lowest segment not
	// yet fetched and acked by a live follower, so compaction on the primary
	// cannot race a slow follower out of its catch-up window. Segments with
	// Seq >= RetainFloor() are kept; return MaxInt64 for "no constraint".
	// Retained covered segments are redundant for recovery (DESIGN.md §7,
	// invariant 3), so keeping them is pure space, never correctness.
	RetainFloor func() int64
}

// keepSnapshots is how many snapshots compaction retains, the new one
// included: the previous snapshot stays the fallback if the new one is ever
// unreadable.
const keepSnapshots = 2

// CompactStats reports what one compaction did.
type CompactStats struct {
	SnapshotSeq      int64 // highest segment the installed snapshot covers (0 = none written)
	Rows             int   // table rows serialized into the new snapshot, copied pages' included
	PagesCopied      int   // complete pages copied verbatim from the base snapshot
	PagesEncoded     int   // pages encoded from the tables
	SegmentsRemoved  int
	SnapshotsRemoved int
}

// Compact runs one compaction cycle. It is a no-op (returning zero stats)
// when there are no sealed segments to fold.
func (c *Compactor) Compact() (CompactStats, error) {
	var stats CompactStats
	walPath := c.WAL.Path()
	fsys := c.WAL.fs

	// Clear temp files a crashed compaction left behind. Plain directory
	// listing, not filepath.Glob: the WAL path may legally contain glob
	// metacharacters.
	walDir, walBase := filepath.Split(walPath)
	if walDir == "" {
		walDir = "."
	}
	if entries, err := os.ReadDir(walDir); err == nil {
		for _, e := range entries {
			name := e.Name()
			if strings.HasPrefix(name, walBase+".snap.") && strings.HasSuffix(name, ".tmp") {
				fsys.Remove(filepath.Join(walDir, name))
			}
		}
	}

	if _, err := c.WAL.Seal(); err != nil {
		return stats, err
	}
	segs, err := ListSegments(walPath)
	if err != nil {
		return stats, err
	}
	if len(segs) == 0 {
		return stats, nil
	}

	// Base: the newest readable snapshot, so compaction replays only the
	// delta since the last cycle and never O(total history): deleted
	// segments are gone for good. The fold is the log consumer recovery uses
	// (recover.go): the same snapshot fallback and gap refusal, one epoch
	// and one stamp per commit record, so AS OF answers survive compaction. The base is still verified and decoded in full — every
	// page passes the reader's checks, which is what makes its complete
	// pages safe to copy — so that step remains O(live data); the walk and
	// the write are O(delta).
	db := relation.NewDatabase()
	tables, err := record.NewTables(db)
	if err != nil {
		return stats, err
	}
	st := State{DB: db, Tables: tables, Blobs: c.Blobs}
	base, pages, upto, err := st.open(walPath)
	if err != nil {
		return stats, err
	}
	res, err := st.walk(walPath, base.Seq, upto, false, true)
	if err != nil {
		return stats, err
	}
	if base.Seq < upto {
		meta := record.SnapshotMeta{
			Version: record.SnapshotVersion, Seq: upto, MaxTstamp: max(base.MaxTstamp, res.MaxTstamp),
			Epoch: db.Epoch(), Epochs: db.EpochStamps(),
		}
		if stats.PagesCopied, stats.PagesEncoded, err = c.writeSnapshot(walPath, meta, tables, pages); err != nil {
			return stats, err
		}
	}
	// A base covering upto happens only after a crash between snapshot
	// install and segment delete: the snapshot already covers everything
	// sealed, so all that is left is reclaiming space.
	stats.SnapshotSeq = upto
	stats.Rows = tables.Logs.Len() + tables.Loops.Len() + tables.Ts2vid.Len() +
		tables.ObjStore.Len() + tables.Args.Len()

	// Prune superseded snapshots.
	snaps, err := ListSnapshots(walPath)
	if err != nil {
		return stats, err
	}
	for i := 0; i < len(snaps)-keepSnapshots; i++ {
		if err := fsys.Remove(snaps[i].Path); err != nil {
			return stats, fmt.Errorf("storage: prune snapshot: %w", err)
		}
		stats.SnapshotsRemoved++
	}

	keepFrom := int64(math.MaxInt64)
	if c.RetainFloor != nil {
		if f := c.RetainFloor(); f < keepFrom {
			keepFrom = f
		}
	}
	if c.RetainSegments > 0 {
		if f := upto - int64(c.RetainSegments) + 1; f < keepFrom {
			keepFrom = f
		}
	}
	for _, sg := range segs {
		if sg.Seq > stats.SnapshotSeq || sg.Seq >= keepFrom {
			continue
		}
		if err := fsys.Remove(sg.Path); err != nil {
			return stats, fmt.Errorf("storage: drop segment: %w", err)
		}
		stats.SegmentsRemoved++
	}
	if err := fsys.SyncDir(filepath.Dir(walPath)); err != nil {
		return stats, err
	}
	return stats, nil
}

// writeSnapshot writes the snapshot over base to a temp file, one Write per
// section, and Installs it. It returns the pages copied and encoded.
func (c *Compactor) writeSnapshot(walPath string, meta record.SnapshotMeta, tables *record.Tables, base *record.SnapshotBase) (copied, encoded int, err error) {
	final := SnapshotPath(walPath, meta.Seq)
	f, err := c.WAL.fs.OpenFile(final+".tmp", os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, 0, fmt.Errorf("storage: snapshot temp: %w", err)
	}
	if copied, encoded, err = record.WriteSnapshotOver(f, meta, tables, base); err != nil {
		f.Close()
		return 0, 0, err
	}
	if err := Install(c.WAL.fs, f, final, true); err != nil {
		return 0, 0, fmt.Errorf("storage: snapshot install: %w", err)
	}
	return copied, encoded, nil
}
