package storage

import (
	"fmt"
	"os"

	"flordb/internal/record"
	"flordb/internal/relation"
)

// State is what the log is rebuilt into: the tables and the database whose
// MVCC clock they share. Recovery, compaction and replica apply all rebuild a
// State through the one consumer in this file, so the rules of reading the
// log back — which snapshot, which segments, which records are visible, one
// stamped epoch per commit record — are written down once; a live commit
// publishes through the same commit arm (Publish).
type State struct {
	DB     *relation.Database
	Tables *record.Tables
	// Blobs reads the bytes of checkpoint lines written before checkpoints
	// rode in the log (blob_key, no data). Without it such a line is an
	// error, as is a blob it cannot read.
	Blobs *BlobStore
}

// RecoverResult reports what a recovery did.
type RecoverResult struct {
	MaxTstamp   int64 // highest logical timestamp observed (snapshot + tail)
	Applied     int   // WAL records replayed after the snapshot
	SnapshotSeq int64 // segment sequence the loaded snapshot covers (0 = full replay)
	// ActiveCommittedLen is the committed prefix length of the active WAL
	// file; the session truncates the file to it so the uncommitted tail
	// cannot be resurrected by a later commit.
	ActiveCommittedLen int64
}

// RecoverHooks is the trailing parameter of RecoverTables. It carries
// nothing: the epoch state recovery rebuilds is a State's, not a callback's.
type RecoverHooks struct{}

// Recover rebuilds st from the newest readable snapshot plus the WAL tail:
// the sealed segments the snapshot does not cover, then the active file. A
// corrupt or unreadable snapshot falls back to the previous one, and finally
// to a full replay — but only while the segments covering the difference
// still exist; a fallback across compacted history is an error rather than a
// silently shrunken database. When strict is true, records after the last
// commit in the stream are not applied.
func (st State) Recover(walPath string, strict bool) (RecoverResult, error) {
	meta, _, upto, err := st.open(walPath)
	if err != nil {
		return RecoverResult{}, err
	}
	res, err := st.walk(walPath, meta.Seq, upto, true, strict)
	res.SnapshotSeq = meta.Seq
	res.MaxTstamp = max(res.MaxTstamp, meta.MaxTstamp)
	return res, err
}

// ApplySegment replays the sealed segment seq — installed under the WAL
// directory by replication — into st and returns the highest logical
// timestamp it carried. A sealed segment ends with a commit record, so a
// torn final line or an uncommitted suffix means the file is truncated or
// tampered with, and is an error.
func (st State) ApplySegment(walPath string, seq int64) (int64, error) {
	res, err := st.walk(walPath, seq-1, seq, false, true)
	return res.MaxTstamp, err
}

// RecoverTables is Recover into tables alone, for callers that hold no
// session (probes, tests): the epoch state is counted against a scratch
// database and dropped. Like the hooks, the root target is ignored: every
// ts2vid row is rebuilt with an empty root_target, as it was written.
func RecoverTables(walPath string, tables *record.Tables, blobs *BlobStore, _ string, strict bool, _ RecoverHooks) (RecoverResult, error) {
	st := State{DB: relation.NewDatabase(), Tables: tables, Blobs: blobs}
	return st.Recover(walPath, strict)
}

// open loads the newest readable snapshot into st.Tables and restores the
// MVCC clock from it: the database epoch and the epoch stamps. An
// unreadable snapshot is skipped; the reader verifies every page before
// touching the tables, so a rejected one leaves them empty.
//
// It returns the loaded meta (zero when none loads), the loaded snapshot's
// verified complete pages (nil when none loads; compaction copies them), and
// upto, the last sealed segment a walk from it must reach: the newest
// segment on disk, and at least the coverage of the newest snapshot file,
// loaded or not. A fallback past an unreadable snapshot whose segments were
// compacted away thus meets a missing segment in walk and is refused.
func (st State) open(walPath string) (meta record.SnapshotMeta, base *record.SnapshotBase, upto int64, err error) {
	segs, err := ListSegments(walPath)
	if err != nil {
		return meta, nil, 0, err
	}
	snaps, err := ListSnapshots(walPath)
	if err != nil {
		return meta, nil, 0, err
	}
	if len(segs) > 0 {
		upto = segs[len(segs)-1].Seq
	}
	if len(snaps) > 0 {
		upto = max(upto, snaps[len(snaps)-1].Seq)
	}
	for i := len(snaps) - 1; i >= 0; i-- {
		data, rerr := os.ReadFile(snaps[i].Path)
		if rerr != nil {
			continue
		}
		if m, b, rerr := record.ReadSnapshotBase(data, st.Tables); rerr == nil {
			meta, base = m, b
			break
		}
	}
	st.DB.Restore(meta.Epoch, meta.Epochs)
	return meta, base, upto, nil
}

// walk replays the sealed segments after+1..upto in order — each must
// exist, so a gap in history is an error, never skipped — and then, when
// active is set, the active file, whose torn final line is tolerated. With
// strict set, records are held back until the commit that makes them
// visible; a walk of sealed segments alone must end on a commit.
func (st State) walk(walPath string, after, upto int64, active, strict bool) (RecoverResult, error) {
	var res RecoverResult
	rs := &replayState{strict: strict, fn: func(rec any) error {
		ts, err := st.apply(rec)
		if err != nil {
			return err
		}
		res.Applied++
		res.MaxTstamp = max(res.MaxTstamp, ts)
		return nil
	}}
	for seq := after + 1; seq <= upto; seq++ {
		if _, err := replayFile(SegmentPath(walPath, seq), false, rs); err != nil {
			return res, err
		}
	}
	if active {
		n, err := replayFile(walPath, true, rs)
		res.ActiveCommittedLen = n
		return res, err
	}
	if len(rs.buf) > 0 {
		return res, fmt.Errorf("storage: sealed segments %d..%d end with %d uncommitted record(s); refusing to apply them", after+1, upto, len(rs.buf))
	}
	return res, nil
}

// Publish is the commit arm: the one place an epoch is published. It
// materializes the commit record's ts2vid row when the record carries a
// version id, then advances the database epoch stamped with the record's
// wall clock. Replay reaches it once per commit record, and a live commit
// calls it once its record is durable, so a live database and one rebuilt
// from its log count and stamp the same epochs. No commit names a build
// target, so root_target is always empty. The row holds the strings the
// record's WAL line carries (record.Sanitize).
func (st State) Publish(rec *record.CommitRecord) error {
	record.Sanitize(rec)
	if rec.VID != "" {
		if _, err := st.Tables.Ts2vid.Insert(relation.Row{
			relation.Text(rec.ProjID), relation.Int(rec.Tstamp), relation.Int(rec.Tstamp),
			relation.Text(rec.VID), relation.Text(""),
		}); err != nil {
			return err
		}
	}
	st.DB.AdvanceEpoch(rec.Wall)
	return nil
}

// apply applies one replayed record to st and returns its logical
// timestamp. A commit record goes through Publish; every other record is
// shredded by Tables.Apply, a checkpoint line written before checkpoints
// rode in the log once its bytes are read from the objects/ store.
func (st State) apply(rec any) (int64, error) {
	switch r := rec.(type) {
	case *record.CommitRecord:
		return r.Tstamp, st.Publish(r)
	case *record.CkptRecord:
		if r.Data == nil && r.BlobKey != "" {
			var err error
			if r.Data, err = st.Blobs.Get(r.BlobKey); err != nil {
				return r.Tstamp, fmt.Errorf("storage: checkpoint %s: %w", r.Name, err)
			}
		}
		return r.Tstamp, st.Tables.Apply(r)
	case *record.LogRecord:
		return r.Tstamp, st.Tables.Apply(rec)
	case *record.LoopRecord:
		return r.Tstamp, st.Tables.Apply(rec)
	case *record.ArgRecord:
		return r.Tstamp, st.Tables.Apply(rec)
	default:
		return 0, st.Tables.Apply(rec)
	}
}
