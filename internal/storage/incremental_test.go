package storage

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"flordb/internal/record"
	"flordb/internal/relation"
)

// TestIncrementalSnapshotEqualsFullRewrite: a compaction copies its base
// snapshot's complete pages and encodes only the rest, and the file it
// installs must be exactly the one a full rewrite produces. Seeded workloads
// chain 1–8 compactions whose deltas start and end mid-page in every base
// table — obj_store rows rehydrated from the blob store, ts2vid rows from
// commit records. After each cycle the installed file is compared byte for byte with WriteSnapshot of
// the tables rebuilt by replaying the whole log from segment 1 (every
// segment is retained), and the cycle must have copied exactly the previous
// snapshot's complete pages.
func TestIncrementalSnapshotEqualsFullRewrite(t *testing.T) {
	var copiedFrom [5]bool // per snapshot table: some cycle copied its pages
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			incrementalSeed(t, seed, &copiedFrom)
		})
	}
	for ti, ok := range copiedFrom {
		if !ok {
			t.Errorf("no cycle copied a page of table %d: the property was vacuous for it", ti)
		}
	}
}

func incrementalSeed(t *testing.T, seed int64, copiedFrom *[5]bool) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	path := filepath.Join(dir, "flor.wal")
	w, err := OpenWAL(path, Options{NoSync: true, SegmentBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	blobs, err := NewBlobStore(filepath.Join(dir, "objects"))
	if err != nil {
		t.Fatal(err)
	}
	var models [][]byte
	var keys []string
	for i := 0; i < 3; i++ {
		models = append(models, []byte(fmt.Sprintf("model-%d-%d", seed, i)))
		keys = append(keys, putLegacyBlob(t, filepath.Join(dir, "objects"), models[i]))
	}
	c := &Compactor{WAL: w, Blobs: blobs, RetainSegments: 1 << 30}

	wall := time.Unix(1_700_000_000, 0).UTC()
	ts := int64(1)         // ts-1 is the committed epoch
	prev := make([]int, 5) // rows per snapshot table in the previous snapshot
	cycles := 1 + rng.Intn(8)
	for cycle := 0; cycle < cycles; cycle++ {
		// The first cycle gives every table complete pages to copy; later
		// deltas are small enough to end mid-page most of the time.
		lo, span := 1, 1500
		if cycle == 0 {
			lo = relation.ZonePageRows + 1
		}
		var recs []any
		for i, n := 0, lo+rng.Intn(span); i < n; i++ {
			recs = append(recs, &record.LogRecord{Kind: record.KindLog, ProjID: "p", Filename: "train.flow",
				CtxID: int64(i % 17), ValueName: []string{"loss", "acc", "lr"}[rng.Intn(3)],
				Value: fmt.Sprint(rng.Float64()), ValueType: record.VTFloat, Wall: wall})
		}
		for i, n := 0, lo+rng.Intn(span); i < n; i++ {
			recs = append(recs, &record.LoopRecord{Kind: record.KindLoop, ProjID: "p", Filename: "train.flow",
				CtxID: int64(i), ParentCtxID: int64(i / 10), LoopName: "epoch", LoopIter: int64(i % 10),
				IterValue: fmt.Sprint(i), Wall: wall})
		}
		for i, n := 0, lo+rng.Intn(span); i < n; i++ {
			recs = append(recs, &record.ArgRecord{Kind: record.KindArg, ProjID: "p", Filename: "train.flow",
				Name: "hidden", Value: fmt.Sprint(rng.Intn(512))})
		}
		for i, n := 0, lo+rng.Intn(span); i < n; i++ {
			// Checkpoint lines carry their bytes, or name a legacy blob.
			ck := &record.CkptRecord{Kind: record.KindCkpt, ProjID: "p", Filename: "train.flow",
				CtxID: int64(i), Name: "model"}
			if m := rng.Intn(2 * len(keys)); m < len(keys) {
				ck.BlobKey = keys[m]
			} else {
				ck.Data = models[m-len(keys)]
			}
			recs = append(recs, ck)
		}
		rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
		// Commits: at least a page of versioned ones in the first cycle, so
		// ts2vid has complete pages too.
		commits := lo + rng.Intn(600)
		for k := 0; k < commits; k++ {
			for _, rec := range recs[k*len(recs)/commits : (k+1)*len(recs)/commits] {
				setTstamp(rec, ts)
				if err := w.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			wall = wall.Add(time.Duration(1+rng.Intn(1000)) * time.Millisecond)
			vid := ""
			if cycle == 0 || rng.Intn(5) > 0 {
				vid = fmt.Sprintf("v%d", ts)
			}
			if err := w.AppendCommit(&record.CommitRecord{Kind: record.KindCommit, ProjID: "p", Tstamp: ts, VID: vid, Wall: wall}); err != nil {
				t.Fatal(err)
			}
			ts++
		}
		stats, err := c.Compact()
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		got, err := os.ReadFile(SnapshotPath(path, stats.SnapshotSeq))
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		want, ref := fullRewrite(t, path, blobs, stats.SnapshotSeq)
		if !bytes.Equal(got, want) {
			t.Fatalf("cycle %d: installed snapshot (%d bytes) differs from the full rewrite (%d bytes)", cycle, len(got), len(want))
		}
		copied, total := 0, 0
		for ti, tbl := range []*relation.Table{ref.Logs, ref.Loops, ref.Ts2vid, ref.ObjStore, ref.Args} {
			n := tbl.Len()
			if prev[ti] >= relation.ZonePageRows {
				copiedFrom[ti] = true
			}
			copied += prev[ti] / relation.ZonePageRows
			total += (n + relation.ZonePageRows - 1) / relation.ZonePageRows
			prev[ti] = n
		}
		if stats.PagesCopied != copied || stats.PagesEncoded != total-copied {
			t.Fatalf("cycle %d: copied %d and encoded %d pages, want %d and %d",
				cycle, stats.PagesCopied, stats.PagesEncoded, copied, total-copied)
		}
	}
}

// setTstamp stamps a generated record with its transaction's timestamp.
func setTstamp(rec any, ts int64) {
	switch r := rec.(type) {
	case *record.LogRecord:
		r.Tstamp = ts
	case *record.LoopRecord:
		r.Tstamp = ts
	case *record.ArgRecord:
		r.Tstamp = ts
	case *record.CkptRecord:
		r.Tstamp = ts
	}
}

// fullRewrite is the reference: it rebuilds the tables from the whole log —
// no snapshot, every segment 1..upto — and encodes every page of them.
func fullRewrite(t *testing.T, path string, blobs *BlobStore, upto int64) ([]byte, *record.Tables) {
	t.Helper()
	st := newState(t)
	st.Blobs = blobs
	res, err := st.walk(path, 0, upto, false, true)
	if err != nil {
		t.Fatal(err)
	}
	meta := record.SnapshotMeta{
		Version: record.SnapshotVersion, Seq: upto, MaxTstamp: res.MaxTstamp,
		Epoch: st.DB.Epoch(), Epochs: st.DB.EpochStamps(),
	}
	var buf bytes.Buffer
	if err := record.WriteSnapshot(&buf, meta, st.Tables); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), st.Tables
}

// parentProjectSnapshotSHA256 is the sha256 of the snapshot the release
// before incremental compaction wrote for testdata/parent_project.
const parentProjectSnapshotSHA256 = "fff442791606867b26c1224e46e2b93275bed374f4418c2ed452b4e873376771"

// TestParentProjectCompactsToKnownBytes: compacting the checked-in
// project yields, byte for byte, the snapshot the full-rewrite writer
// produced for it — the format did not change.
func TestParentProjectCompactsToKnownBytes(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "parent_project", ".flor", "flor.wal"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "flor.wal")
	if err := os.WriteFile(path, src, 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := OpenWAL(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	stats, err := (&Compactor{WAL: w}).Compact()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(SnapshotPath(path, stats.SnapshotSeq))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != parentProjectSnapshotSHA256 {
		t.Fatalf("snapshot sha256 = %s, want %s", got, parentProjectSnapshotSHA256)
	}
}

// legacyCkptSnapshotSHA256 is the sha256 of the snapshot the release before
// checkpoints rode in the log wrote for testdata/legacy_ckpt_project.
const legacyCkptSnapshotSHA256 = "18f4e889e9997b61c6cd8ff9bc8a1e1647e32fb82a4482bebfa6436a7b4ce121"

// TestLegacyCheckpointRecovery: testdata/legacy_ckpt_project holds two ckpt
// lines of the release before checkpoints rode in the log, each naming its
// bytes by key in objects/ (blob_key, no data). Compacting it yields, byte
// for byte, the snapshot that release wrote — the same obj_store rows. With
// a blob missing or corrupt, recovery and compaction fail naming its key,
// where that release dropped the row.
func TestLegacyCheckpointRecovery(t *testing.T) {
	fixture := filepath.Join("..", "..", "testdata", "legacy_ckpt_project", ".flor")
	src, err := os.ReadFile(filepath.Join(fixture, "flor.wal"))
	if err != nil {
		t.Fatal(err)
	}
	const key = "6b9e948ddf835670dd009006a0f4372acdf60615038726f2f978cc71bab1207e" // the first ckpt line's
	corrupt := t.TempDir()
	if err := os.MkdirAll(filepath.Join(corrupt, key[:2]), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(corrupt, key[:2], key[2:]), []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, objects string }{
		{"intact", filepath.Join(fixture, "objects")},
		{"missing", t.TempDir()},
		{"corrupt", corrupt},
	} {
		t.Run(tc.name, func(t *testing.T) {
			blobs, err := NewBlobStore(tc.objects)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "flor.wal")
			if err := os.WriteFile(path, src, 0o644); err != nil {
				t.Fatal(err)
			}
			tables := newTables(t)
			_, rerr := RecoverTables(path, tables, blobs, "", true, RecoverHooks{})
			w, err := OpenWAL(path, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			stats, cerr := (&Compactor{WAL: w, Blobs: blobs}).Compact()
			if tc.name != "intact" {
				for _, err := range []error{rerr, cerr} {
					if err == nil || !strings.Contains(err.Error(), key) {
						t.Fatalf("recovery and compaction errors %v, %v: want both to name %s", rerr, cerr, key)
					}
				}
				return
			}
			if rerr != nil || cerr != nil {
				t.Fatalf("recover: %v, compact: %v", rerr, cerr)
			}
			if n := tables.ObjStore.Len(); n != 2 {
				t.Fatalf("obj_store rows = %d, want 2", n)
			}
			data, err := os.ReadFile(SnapshotPath(path, stats.SnapshotSeq))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != legacyCkptSnapshotSHA256 {
				t.Fatalf("snapshot sha256 = %s, want %s", got, legacyCkptSnapshotSHA256)
			}
		})
	}
}
