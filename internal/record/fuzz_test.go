package record

import (
	"bytes"
	"testing"
	"time"

	"flordb/internal/relation"
)

// FuzzRecordDecode holds the WAL line decoder to the reflective reference
// on arbitrary bytes: both reject, or both accept with equal records (a key
// that matches a field only case-insensitively aside). An accepted line
// re-encodes as json.Marshal would.
func FuzzRecordDecode(f *testing.F) {
	seeds := []any{
		&LogRecord{Kind: KindLog, ProjID: "p", Tstamp: 3, Filename: "train.flow", CtxID: 7, ValueName: "acc", Value: "0.93", ValueType: VTFloat, Wall: time.Unix(1700000000, 0).UTC()},
		&LoopRecord{Kind: KindLoop, ProjID: "p", Tstamp: 1, Filename: "train.flow", CtxID: 2, ParentCtxID: 1, LoopName: "epoch", LoopIter: 4, IterValue: "4"},
		&ArgRecord{Kind: KindArg, ProjID: "p", Tstamp: 1, Filename: "train.flow", Name: "lr", Value: "0.01"},
		&CkptRecord{Kind: KindCkpt, ProjID: "p", Tstamp: 2, Filename: "train.flow", CtxID: 9, Name: "ckpt::epoch::4", BlobKey: "deadbeef"},
		&CommitRecord{Kind: KindCommit, ProjID: "p", Tstamp: 5, VID: "v123"},
	}
	for _, rec := range ckptRecords {
		seeds = append(seeds, rec)
	}
	for _, rec := range seeds {
		line, err := Encode(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
	}
	for _, line := range decodeSeeds() {
		// The two 10,000-deep nesting lines stay in TestDecodeMatchesJSON:
		// as seeds, mutating and minimizing them stalls the fuzzer.
		if len(line) < 1024 {
			f.Add([]byte(line))
		}
	}
	for _, line := range parentProjectLines(f) {
		f.Add(line)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
		if rec, err := Decode(data); err == nil {
			checkEncode(t, rec)
		}
	})
}

// FuzzSnapshotRead feeds arbitrary bytes through the snapshot reader: it
// must never panic and must leave the destination tables untouched on error.
func FuzzSnapshotRead(f *testing.F) {
	tables, err := CreateTables(relation.NewDatabase())
	if err != nil {
		f.Fatal(err)
	}
	if err := tables.Apply(&LogRecord{Kind: KindLog, ProjID: "p", Tstamp: 1, Filename: "f", ValueName: "acc", Value: "1", ValueType: VTInt}); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, SnapshotMeta{Version: SnapshotVersion, Seq: 1, MaxTstamp: 1}, tables); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("FLORSNAP"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dst, err := CreateTables(relation.NewDatabase())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ReadSnapshot(data, dst); err != nil {
			for _, tbl := range dst.snapshotTables() {
				if tbl.Len() != 0 {
					t.Fatalf("failed load dirtied table %s", tbl.Name())
				}
			}
		}
	})
}
