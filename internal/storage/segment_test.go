package storage

import (
	"os"
	"path/filepath"
	"testing"

	"flordb/internal/record"
	"flordb/internal/relation"
)

func newTables(t *testing.T) *record.Tables {
	t.Helper()
	return newState(t).Tables
}

// newState returns an empty State over a fresh database.
func newState(t *testing.T) State {
	t.Helper()
	db := relation.NewDatabase()
	tables, err := record.CreateTables(db)
	if err != nil {
		t.Fatal(err)
	}
	return State{DB: db, Tables: tables}
}

// fillCommits appends n transactions of `per` log records each, committing
// after every transaction.
func fillCommits(t *testing.T, w *WAL, n, per int) {
	t.Helper()
	ts := int64(1)
	for i := 0; i < n; i++ {
		for j := 0; j < per; j++ {
			if err := w.Append(logRec(ts, "x", "v")); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.AppendCommit(commitRec(ts)); err != nil {
			t.Fatal(err)
		}
		ts++
	}
}

func TestWALRotatesAtCommitBoundary(t *testing.T) {
	path := walPath(t)
	w, err := OpenWAL(path, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	fillCommits(t, w, 5, 3)
	segs, err := ListSegments(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Fatal("no rotation despite tiny segment size")
	}
	for i, sg := range segs {
		if sg.Seq != int64(i+1) {
			t.Fatalf("segment seq %d at position %d", sg.Seq, i)
		}
		// Rotation only happens at commit boundaries: every sealed segment
		// ends with a commit record.
		var last any
		if err := Replay(sg.Path, false, func(rec any) error { last = rec; return nil }); err != nil {
			t.Fatal(err)
		}
		if _, ok := last.(*record.CommitRecord); !ok {
			t.Fatalf("segment %d ends with %T, want commit", sg.Seq, last)
		}
	}
	// The full stream is intact across segments.
	res, err := RecoverTables(path, newTables(t), nil, "", false, RecoverHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 5*3+5 {
		t.Fatalf("replayed %d records, want %d", res.Applied, 5*3+5)
	}
	w.Close()
}

func TestRecoverStrictAcrossSegments(t *testing.T) {
	path := walPath(t)
	w, _ := OpenWAL(path, Options{SegmentBytes: 1}) // rotate after every commit
	fillCommits(t, w, 2, 2)
	// Uncommitted tail in the active file.
	w.Append(logRec(9, "tail", "t"))
	w.Close()

	all, err := RecoverTables(path, newTables(t), nil, "", false, RecoverHooks{})
	if err != nil {
		t.Fatal(err)
	}
	committed, err := RecoverTables(path, newTables(t), nil, "", true, RecoverHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if all.Applied != 7 || committed.Applied != 6 {
		t.Fatalf("all=%d committed=%d", all.Applied, committed.Applied)
	}
	// The active file holds only the uncommitted record: no commit, len 0.
	if all.ActiveCommittedLen != 0 {
		t.Fatalf("ActiveCommittedLen = %d, want 0", all.ActiveCommittedLen)
	}
}

func TestSealRefusesUncommittedTail(t *testing.T) {
	path := walPath(t)
	w, _ := OpenWAL(path, Options{})
	fillCommits(t, w, 1, 1)
	w.Append(logRec(2, "uncommitted", "u"))
	seq, err := w.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if seq != 0 {
		t.Fatal("sealed a file with an uncommitted tail")
	}
	if err := w.AppendCommit(commitRec(2)); err != nil {
		t.Fatal(err)
	}
	seq, err = w.Seal()
	if err != nil || seq != 1 {
		t.Fatalf("seal after commit: seq=%d err=%v", seq, err)
	}
	// Active is now empty; sealing again is a no-op.
	if seq, _ := w.Seal(); seq != 0 {
		t.Fatal("sealed an empty active file")
	}
	w.Close()
}

func TestTruncateDropsTail(t *testing.T) {
	path := walPath(t)
	w, _ := OpenWAL(path, Options{})
	fillCommits(t, w, 1, 1)
	stats, err := RecoverTables(path, newTables(t), nil, "", true, RecoverHooks{})
	if err != nil {
		t.Fatal(err)
	}
	w.Append(logRec(5, "tail", "t"))
	w.Flush()
	if err := w.Truncate(stats.ActiveCommittedLen); err != nil {
		t.Fatal(err)
	}
	w.Close()
	var n int
	if err := Replay(path, false, func(any) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("records after truncate = %d, want 2", n)
	}
}

// dumpTables renders every base-table row for multiset comparison.
func dumpTables(t *record.Tables) []string {
	var out []string
	for _, tbl := range []*relation.Table{t.Logs, t.Loops, t.Ts2vid, t.ObjStore, t.Args} {
		tbl.Scan(func(_ relation.RowID, r relation.Row) bool {
			line := tbl.Name()
			for _, v := range r {
				line += "|" + v.String()
			}
			out = append(out, line)
			return true
		})
	}
	return out
}

func sameMultiset(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("row count %d != %d", len(got), len(want))
	}
	count := make(map[string]int, len(want))
	for _, s := range want {
		count[s]++
	}
	for _, s := range got {
		count[s]--
		if count[s] < 0 {
			t.Fatalf("unexpected row %q", s)
		}
	}
}

func TestCompactorSnapshotEqualsFullReplay(t *testing.T) {
	path := walPath(t)
	w, err := OpenWAL(path, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	fillCommits(t, w, 4, 3)

	// Expected state: full replay before compaction.
	want := newTables(t)
	if _, err := RecoverTables(path, want, nil, "", true, RecoverHooks{}); err != nil {
		t.Fatal(err)
	}

	c := &Compactor{WAL: w}
	stats, err := c.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if stats.SnapshotSeq == 0 || stats.SegmentsRemoved == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	segs, _ := ListSegments(path)
	for _, sg := range segs {
		if sg.Seq <= stats.SnapshotSeq {
			t.Fatalf("covered segment %d survived compaction", sg.Seq)
		}
	}

	got := newTables(t)
	res, err := RecoverTables(path, got, nil, "", true, RecoverHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SnapshotSeq != stats.SnapshotSeq {
		t.Fatalf("recovered from snapshot %d, want %d", res.SnapshotSeq, stats.SnapshotSeq)
	}
	sameMultiset(t, dumpTables(got), dumpTables(want))
	w.Close()
}

func TestCompactorIsIncrementalAndPrunes(t *testing.T) {
	path := walPath(t)
	w, _ := OpenWAL(path, Options{SegmentBytes: 1})
	fillCommits(t, w, 2, 2)
	c := &Compactor{WAL: w}
	if _, err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	fillCommits(t, w, 2, 2)
	stats, err := c.Compact()
	if err != nil {
		t.Fatal(err)
	}
	snaps, _ := ListSnapshots(path)
	if len(snaps) != 2 {
		t.Fatalf("kept %d snapshots, want 2 (new + fallback)", len(snaps))
	}
	fillCommits(t, w, 2, 2)
	if _, err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	snaps, _ = ListSnapshots(path)
	if len(snaps) != 2 {
		t.Fatalf("kept %d snapshots after third compaction, want 2", len(snaps))
	}
	_ = stats
	// Everything still recovers to 6 committed transactions of 2 logs each.
	got := newTables(t)
	if _, err := RecoverTables(path, got, nil, "", true, RecoverHooks{}); err != nil {
		t.Fatal(err)
	}
	if got.Logs.Len() != 12 {
		t.Fatalf("recovered %d log rows, want 12", got.Logs.Len())
	}
	w.Close()
}

func TestSegmentSequencesNeverRestart(t *testing.T) {
	path := walPath(t)
	w, _ := OpenWAL(path, Options{SegmentBytes: 1})
	fillCommits(t, w, 3, 1)
	c := &Compactor{WAL: w}
	stats, err := c.Compact()
	if err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Reopen after compaction deleted segments 1..N: new segments must
	// number past the snapshot's coverage or recovery would skip them.
	w2, err := OpenWAL(path, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	fillCommits(t, w2, 2, 1)
	segs, _ := ListSegments(path)
	if len(segs) == 0 || segs[0].Seq <= stats.SnapshotSeq {
		t.Fatalf("segments %v reuse sequences covered by snapshot %d", segs, stats.SnapshotSeq)
	}
	got := newTables(t)
	if _, err := RecoverTables(path, got, nil, "", true, RecoverHooks{}); err != nil {
		t.Fatal(err)
	}
	if got.Logs.Len() != 5 {
		t.Fatalf("recovered %d log rows, want 5", got.Logs.Len())
	}
	w2.Close()
}

func TestListNumberedIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "flor.wal")
	os.WriteFile(path, nil, 0o644)
	os.WriteFile(path+".000000002", nil, 0o644)
	os.WriteFile(path+".snap.000000002", nil, 0o644)
	os.WriteFile(path+".snap.000000003.tmp", nil, 0o644)
	os.WriteFile(path+".bak", nil, 0o644)
	os.WriteFile(path+".00000000x", nil, 0o644)
	segs, err := ListSegments(path)
	if err != nil || len(segs) != 1 || segs[0].Seq != 2 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	snaps, err := ListSnapshots(path)
	if err != nil || len(snaps) != 1 || snaps[0].Seq != 2 {
		t.Fatalf("snapshots: %v %v", snaps, err)
	}
}

// TestSegmentGapRefused: a hole in the middle of the sealed segments fails
// the walk, recovery and compaction alike — none of them replays around it,
// and compaction installs no snapshot that would bake the loss in.
func TestSegmentGapRefused(t *testing.T) {
	path := walPath(t)
	w, _ := OpenWAL(path, Options{SegmentBytes: 1})
	fillCommits(t, w, 3, 1)
	w.Close()
	segs, _ := ListSegments(path)
	if len(segs) != 3 {
		t.Fatalf("segments = %d", len(segs))
	}
	os.Remove(segs[1].Path) // hole in the middle of history
	if _, err := newState(t).walk(path, 0, 3, false, true); err == nil {
		t.Fatal("segment gap must fail replay, not silently drop history")
	}
	got := newTables(t)
	if _, err := RecoverTables(path, got, nil, "", true, RecoverHooks{}); err == nil {
		t.Fatal("recovery across a segment gap must error")
	}
	w2, err := OpenWAL(path, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if _, err := (&Compactor{WAL: w2}).Compact(); err == nil {
		t.Fatal("compaction across a segment gap must error")
	}
	if snaps, _ := ListSnapshots(path); len(snaps) != 0 {
		t.Fatalf("compaction installed %v over a segment gap", snaps)
	}
	if segs, _ := ListSegments(path); len(segs) != 2 {
		t.Fatalf("compaction deleted segments around a gap: %v", segs)
	}
}

func TestRecoveryRefusesFallbackOverDeletedSegments(t *testing.T) {
	path := walPath(t)
	w, _ := OpenWAL(path, Options{SegmentBytes: 1})
	fillCommits(t, w, 3, 2)
	c := &Compactor{WAL: w}
	stats, err := c.Compact() // segments 1..N deleted, snapshot N installed
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	// Bit rot hits the only snapshot: the covered segments are gone, so a
	// "fallback" would silently produce an empty database. It must error.
	data, _ := os.ReadFile(SnapshotPath(path, stats.SnapshotSeq))
	data[len(data)/2] ^= 0xFF
	os.WriteFile(SnapshotPath(path, stats.SnapshotSeq), data, 0o644)

	got := newTables(t)
	if _, err := RecoverTables(path, got, nil, "", true, RecoverHooks{}); err == nil {
		t.Fatal("recovery must refuse to silently lose compacted history")
	}
	// Compaction must refuse for the same reason (it would bake the loss
	// into a new snapshot and delete the evidence).
	w2, _ := OpenWAL(path, Options{SegmentBytes: 1})
	fillCommits(t, w2, 1, 1)
	if _, err := (&Compactor{WAL: w2}).Compact(); err == nil {
		t.Fatal("compaction must refuse to fold a partial database")
	}
	w2.Close()
}

func TestOpenWALSingleWriterLock(t *testing.T) {
	path := walPath(t)
	w, err := OpenWAL(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWAL(path, Options{}); err == nil {
		t.Fatal("second concurrent open must fail: it would truncate the first session's in-flight records")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(path, Options{})
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	w2.Close()
}
