package storage

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flordb/internal/record"
)

// FuzzWALReplay writes arbitrary bytes as a WAL file and replays it in both
// commit-visibility modes: replay must never panic, strict replay must never
// deliver more records than non-strict, and a WAL built from real encoded
// records must replay losslessly.
func FuzzWALReplay(f *testing.F) {
	// Seed with a real WAL: records, a commit, an uncommitted tail, and a
	// torn final line.
	dir := f.TempDir()
	seedPath := filepath.Join(dir, "seed.wal")
	w, err := OpenWAL(seedPath, Options{})
	if err != nil {
		f.Fatal(err)
	}
	w.Append(&record.LogRecord{Kind: record.KindLog, ProjID: "p", Tstamp: 1, Filename: "f", ValueName: "acc", Value: "0.9", ValueType: record.VTFloat})
	w.Append(&record.LoopRecord{Kind: record.KindLoop, ProjID: "p", Tstamp: 1, Filename: "f", CtxID: 1, LoopName: "epoch"})
	w.AppendCommit(&record.CommitRecord{Kind: record.KindCommit, ProjID: "p", Tstamp: 2, VID: "v1"})
	w.Append(&record.ArgRecord{Kind: record.KindArg, ProjID: "p", Tstamp: 3, Filename: "f", Name: "lr", Value: "0.1"})
	w.Close()
	seed, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(append(append([]byte(nil), seed...), []byte(`{"kind":"log","proj`)...)) // torn tail
	f.Add([]byte("\n\n  \n"))
	f.Add([]byte(`{"kind":"commit","tstamp":1}`))
	f.Add([]byte(`{"kind":"ckpt","name":"m","blob_key":"deadbeef"}` + "\n" + `{"kind":"commit","tstamp":1}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var all, committed, legacy int
		errAll := Replay(path, false, func(rec any) error {
			all++
			if ck, ok := rec.(*record.CkptRecord); ok && ck.Data == nil && ck.BlobKey != "" {
				legacy++
			}
			return nil
		})
		errStrict := Replay(path, true, func(rec any) error { committed++; return nil })
		if (errAll == nil) != (errStrict == nil) {
			t.Fatalf("visibility mode changed error-ness: all=%v strict=%v", errAll, errStrict)
		}
		if errAll == nil && committed > all {
			t.Fatalf("strict replay delivered more records (%d) than non-strict (%d)", committed, all)
		}
		// The one log consumer must agree with single-file replay on a
		// single-file log: whatever replays also applies — except the
		// checkpoint line of an older release, whose bytes no objects/ store
		// holds here, which recovery refuses.
		res, errRec := newState(t).Recover(path, false)
		if errAll == nil && legacy > 0 {
			if errRec == nil || !strings.Contains(errRec.Error(), "storage: checkpoint") {
				t.Fatalf("Recover over %d legacy checkpoint line(s): %v, want a checkpoint error", legacy, errRec)
			}
		} else if (errRec == nil) != (errAll == nil) || (errRec == nil && res.Applied != all) {
			t.Fatalf("Recover diverged: n=%d err=%v vs n=%d err=%v", res.Applied, errRec, all, errAll)
		}
		// Strict recovery into tables must not panic either.
		if errAll == nil {
			_, _ = RecoverTables(path, newTables(t), nil, "", true, RecoverHooks{})
		}
	})
}
