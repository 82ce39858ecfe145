// End-to-end tests for time-travel AS OF queries: epoch semantics across
// restart, compaction and replication, timestamp resolution, snapshots whose
// stamps start above epoch 1, and a randomized prefix-equivalence property.
package flor_test

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	flor "flordb"
	"flordb/internal/relation"
	"flordb/internal/repl"
	"flordb/internal/storage"
)

// commitStep logs `perCommit` rows stamped with the commit's ordinal and
// commits, so epoch e sees exactly the rows of commits 1..e.
func commitStep(t *testing.T, s *flor.Session, ordinal, perCommit int) {
	t.Helper()
	for j := 0; j < perCommit; j++ {
		s.Log("step", fmt.Sprintf("c%03d-%02d", ordinal, j))
	}
	if err := s.Commit("commit " + strconv.Itoa(ordinal)); err != nil {
		t.Fatal(err)
	}
}

// stepsAsOf reads back the logged step values visible at the given epoch,
// sorted, via a SQL AS OF query on a current reader.
func stepsAsOf(t *testing.T, s *flor.Session, epoch int64) []string {
	t.Helper()
	res, err := s.SQL("SELECT value FROM logs WHERE value_name = 'step' AS OF " + strconv.FormatInt(epoch, 10))
	if err != nil {
		t.Fatalf("AS OF %d: %v", epoch, err)
	}
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r[0].AsText()
	}
	sort.Strings(out)
	return out
}

// expectSteps is the reference answer: the sorted step values of the first
// e commits.
func expectSteps(e, perCommit int) []string {
	var out []string
	for c := 1; c <= e; c++ {
		for j := 0; j < perCommit; j++ {
			out = append(out, fmt.Sprintf("c%03d-%02d", c, j))
		}
	}
	sort.Strings(out)
	return out
}

func assertEpochsVisible(t *testing.T, s *flor.Session, upto, perCommit int) {
	t.Helper()
	for e := 0; e <= upto; e++ {
		got := stepsAsOf(t, s, int64(e))
		want := expectSteps(e, perCommit)
		if len(got) != len(want) {
			t.Fatalf("epoch %d: %d rows, want %d", e, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("epoch %d row %d: %q, want %q", e, i, got[i], want[i])
			}
		}
		// ReaderAt agrees with the SQL AS OF path.
		view, err := s.ReaderAt(int64(e))
		if err != nil {
			t.Fatalf("ReaderAt(%d): %v", e, err)
		}
		res, err := view.SQL("SELECT count(*) c FROM logs WHERE value_name = 'step'")
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0].AsInt(); got != int64(len(want)) {
			t.Fatalf("ReaderAt(%d) count = %d, want %d", e, got, len(want))
		}
	}
}

func TestTimeTravelSurvivesRestartAndCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := flor.Open(dir, "tt", flor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.SetFilename("train.go")
	const commits, perCommit = 6, 3
	for c := 1; c <= commits; c++ {
		commitStep(t, s, c, perCommit)
	}
	if got := s.Database().Epoch(); got != commits {
		t.Fatalf("epoch = %d, want %d", got, commits)
	}
	assertEpochsVisible(t, s, commits, perCommit)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: WAL replay must recount epochs commit by commit.
	s, err = flor.Open(dir, "tt", flor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Database().Epoch(); got != commits {
		t.Fatalf("epoch after restart = %d, want %d", got, commits)
	}
	assertEpochsVisible(t, s, commits, perCommit)

	// Compact, add more history, restart again: the snapshot path must
	// preserve per-version epochs and the epoch counter.
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.SetFilename("train.go")
	commitStep(t, s, commits+1, perCommit)
	assertEpochsVisible(t, s, commits+1, perCommit)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = flor.Open(dir, "tt", flor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Database().Epoch(); got != commits+1 {
		t.Fatalf("epoch after compact+restart = %d, want %d", got, commits+1)
	}
	assertEpochsVisible(t, s, commits+1, perCommit)
}

func TestAsOfTimestampResolvesToEpoch(t *testing.T) {
	s, err := flor.OpenMemory("tt-ts", flor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetFilename("train.go")

	var marks []time.Time // marks[i] = a wall instant after commit i+1
	for c := 1; c <= 3; c++ {
		commitStep(t, s, c, 1)
		time.Sleep(5 * time.Millisecond)
		marks = append(marks, time.Now().UTC())
		time.Sleep(5 * time.Millisecond)
	}

	for i, mark := range marks {
		q := "SELECT count(*) c FROM logs WHERE value_name = 'step' AS OF TIMESTAMP '" +
			mark.Format(time.RFC3339Nano) + "'"
		res, err := s.SQL(q)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0].AsInt(); got != int64(i+1) {
			t.Fatalf("timestamp after commit %d resolved to %d rows", i+1, got)
		}
	}

	// A timestamp before all commits resolves to the empty epoch 0.
	res, err := s.SQL("SELECT count(*) c FROM logs AS OF TIMESTAMP '2000-01-01'")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].AsInt(); got != 0 {
		t.Fatalf("ancient timestamp sees %d rows, want 0", got)
	}
}

// TestAsOfInFlightEpochRefused: a session's own queries pin the in-flight
// write epoch to read their own writes, but `AS OF` that epoch names no
// committed state. It is refused exactly as ReaderAt refuses it, instead of
// answering with the uncommitted rows, and committed epochs still answer.
func TestAsOfInFlightEpochRefused(t *testing.T) {
	s, err := flor.OpenMemory("tt-inflight", flor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetFilename("train.go")
	commitStep(t, s, 1, 1) // epoch 1 holds one row
	s.Log("step", "uncommitted")

	if res, err := s.SQL("SELECT count(*) FROM logs"); err != nil || res.Rows[0][0].AsInt() != 2 {
		t.Fatalf("latest read = %v, %v; want its own 2 rows", res, err)
	}
	_, rerr := s.ReaderAt(2)
	if rerr == nil || !strings.Contains(rerr.Error(), "not committed yet") {
		t.Fatalf("ReaderAt(2) = %v, want a not-committed refusal", rerr)
	}
	res, err := s.SQL("SELECT count(*) FROM logs AS OF 2")
	if err == nil {
		t.Fatalf("AS OF the in-flight epoch answered %v, want a refusal", res.Rows)
	}
	if err.Error() != rerr.Error() {
		t.Fatalf("AS OF 2 refused with %q, want ReaderAt's %q", err, rerr)
	}
	if res, err := s.SQL("SELECT count(*) FROM logs AS OF 1"); err != nil || res.Rows[0][0].AsInt() != 1 {
		t.Fatalf("AS OF 1 = %v, %v; want the committed row", res, err)
	}
}

// TestEveryEpochReadableAfterGCRestartAndCompaction: GCEpochs retires
// nothing. With RetainEpochs set, after repeated GCEpochs calls, a restart and
// a compaction, AS OF e equals the first e commits for every committed e — on
// the primary, and on a replica that bootstraps from the compacted snapshot
// and then follows new commits segment by segment.
func TestEveryEpochReadableAfterGCRestartAndCompaction(t *testing.T) {
	const commits, perCommit = 8, 2
	dir := t.TempDir()
	opts := flor.Options{RetainEpochs: 1, SegmentBytes: 1}
	s, err := flor.Open(dir, "tt-gc", opts)
	if err != nil {
		t.Fatal(err)
	}
	s.SetFilename("train.go")
	gc := func() {
		t.Helper()
		st, err := s.GCEpochs()
		if err != nil || st.RowsReclaimed != 0 || s.RetentionFloor() != 0 {
			t.Fatalf("GCEpochs = %+v, %v, floor %d: want a no-op", st, err, s.RetentionFloor())
		}
	}
	for c := 1; c <= commits; c++ {
		commitStep(t, s, c, perCommit)
		gc()
		gc()
	}
	assertEpochsVisible(t, s, commits, perCommit)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = flor.Open(dir, "tt-gc", opts); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetFilename("train.go")
	gc()
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	assertEpochsVisible(t, s, commits, perCommit)

	blobs, err := storage.NewBlobStore(filepath.Join(dir, ".flor", "objects"))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(repl.NewPrimary(s, blobs).Routes())
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	f, err := repl.StartFollower(ctx, repl.FollowerConfig{
		PrimaryURL: srv.URL, Dir: t.TempDir(), ProjID: "tt-gc", PollWait: 10 * time.Millisecond,
	})
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { f.Run(ctx); close(done) }()
	defer func() { cancel(); <-done; f.Close() }()
	follow := func(upto int) {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for f.Session().Database().Epoch() < int64(upto) {
			if err := f.Fault(); err != nil {
				t.Fatalf("follower faulted: %v", err)
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica stuck at epoch %d, want %d", f.Session().Database().Epoch(), upto)
			}
			time.Sleep(5 * time.Millisecond)
		}
		assertEpochsVisible(t, f.Session(), upto, perCommit)
	}
	follow(commits)
	for c := commits + 1; c <= commits+2; c++ {
		commitStep(t, s, c, perCommit)
		gc()
	}
	assertEpochsVisible(t, s, commits+2, perCommit)
	follow(commits + 2)
}

// rewriteSnapshotMeta replaces the meta of the snapshot file at path with
// edit's result and re-seals the file's checksum: the way to write a
// snapshot in a format this code no longer produces.
func rewriteSnapshotMeta(t *testing.T, path string, edit func(map[string]any)) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const magic = "FLORSNAP"
	n, k := binary.Uvarint(data[len(magic):])
	start := len(magic) + k
	meta := map[string]any{}
	if err := json.Unmarshal(data[start:start+int(n)], &meta); err != nil {
		t.Fatal(err)
	}
	edit(meta)
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(magic), binary.AppendUvarint(nil, uint64(len(metaJSON)))...)
	out = append(out, metaJSON...)
	out = append(out, data[start+int(n):len(data)-4]...)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLegacySnapshotStampGap: a snapshot written by the retired
// epoch-retention GC carries a min_epoch and stamps that start above epoch 1.
// Opened now, every epoch reads by number, and AS OF TIMESTAMP before the
// first stamp is refused with an error naming that epoch — never answered
// with epoch 0 — across a restart and a compaction that drops the key.
func TestLegacySnapshotStampGap(t *testing.T) {
	const commits, perCommit, first = 5, 2, 3
	dir := t.TempDir()
	s, err := flor.Open(dir, "tt-legacy", flor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.SetFilename("train.go")
	for c := 1; c <= commits; c++ {
		commitStep(t, s, c, perCommit)
		time.Sleep(2 * time.Millisecond) // distinct stamps
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	stamps := s.Database().EpochStamps()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, ".flor", "flor.wal")
	snaps, err := storage.ListSnapshots(walPath)
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshot to rewrite: %v", err)
	}
	rewriteSnapshotMeta(t, snaps[len(snaps)-1].Path, func(m map[string]any) {
		m["min_epoch"] = first
		m["epochs"] = stamps[first-1:]
	})

	at := func(wall int64) string { return time.Unix(0, wall).UTC().Format(time.RFC3339Nano) }
	check := func(s *flor.Session, upto int) {
		t.Helper()
		assertEpochsVisible(t, s, upto, perCommit)
		for _, wall := range []int64{stamps[0].Wall, stamps[first-2].Wall, stamps[first-1].Wall - 1} {
			res, err := s.SQL("SELECT count(*) c FROM logs AS OF TIMESTAMP '" + at(wall) + "'")
			if err == nil {
				t.Fatalf("AS OF TIMESTAMP %s before the first stamp answered %v", at(wall), res.Rows)
			}
			if !strings.Contains(err.Error(), fmt.Sprintf("epoch %d", first)) {
				t.Fatalf("AS OF TIMESTAMP %s: %v; want the first stamped epoch %d named", at(wall), err, first)
			}
		}
		for _, st := range stamps[first-1:] {
			if got, want := fmt.Sprint(stepsAsOfTime(t, s, st.Wall)), fmt.Sprint(stepsAsOf(t, s, st.Epoch)); got != want {
				t.Fatalf("AS OF TIMESTAMP of commit %d = %s, AS OF %d = %s", st.Epoch, got, st.Epoch, want)
			}
		}
	}
	if s, err = flor.Open(dir, "tt-legacy", flor.Options{}); err != nil {
		t.Fatal(err)
	}
	s.SetFilename("train.go")
	check(s, commits)
	if got := s.Database().EpochStamps(); len(got) != commits-first+1 || got[0] != (relation.EpochStamp{Epoch: first, Wall: stamps[first-1].Wall}) {
		t.Fatalf("recovered stamps %v, want those of epochs %d..%d", got, first, commits)
	}
	commitStep(t, s, commits+1, perCommit)
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	check(s, commits+1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = flor.Open(dir, "tt-legacy", flor.Options{}); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	check(s, commits+1)
}

// stepsAsOfTime is stepsAsOf for AS OF TIMESTAMP at wall (Unix nanoseconds).
func stepsAsOfTime(t *testing.T, s *flor.Session, wall int64) []string {
	t.Helper()
	ts := time.Unix(0, wall).UTC().Format(time.RFC3339Nano)
	res, err := s.SQL("SELECT value FROM logs WHERE value_name = 'step' AS OF TIMESTAMP '" + ts + "'")
	if err != nil {
		t.Fatalf("AS OF TIMESTAMP %s: %v", ts, err)
	}
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r[0].AsText()
	}
	sort.Strings(out)
	return out
}

// ts2vidAsOf counts the ts2vid rows visible at the given epoch.
func ts2vidAsOf(t *testing.T, s *flor.Session, epoch int64) int64 {
	t.Helper()
	res, err := s.SQL("SELECT count(*) c FROM ts2vid AS OF " + strconv.FormatInt(epoch, 10))
	if err != nil {
		t.Fatalf("ts2vid AS OF %d: %v", epoch, err)
	}
	return res.Rows[0][0].AsInt()
}

// TestAsOfPrefixEquivalenceRandomized is the randomized property: under a
// random interleaving of commits (some staging a version), compactions, GC
// calls, and restarts, AS OF e must equal the fully-replayed prefix at e for
// every committed epoch — its logged rows and one ts2vid row per staged
// commit — and AS OF TIMESTAMP at commit e's own live stamp must equal AS OF
// e.
func TestAsOfPrefixEquivalenceRandomized(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			stageRng := rand.New(rand.NewSource(-seed))
			dir := t.TempDir()
			s, err := flor.Open(dir, "tt-prop", flor.Options{RetainEpochs: 4})
			if err != nil {
				t.Fatal(err)
			}
			s.SetFilename("train.go")
			var perC []int // perC[c-1] = rows logged by commit c
			var stagedYet bool
			var staged []bool // staged[c-1] = commit c versioned the workspace
			var walls []int64 // walls[c-1] = the stamp the live session gave commit c
			for step := 0; step < 30; step++ {
				switch r := rng.Intn(10); {
				case r < 6: // commit
					n := 1 + rng.Intn(3)
					perC = append(perC, n)
					// A staged file stays in the workspace, so every commit
					// from the first staging on versions it.
					if stageRng.Intn(4) == 0 {
						s.StageFile("train.go", fmt.Sprintf("step = %d\n", len(perC)))
						stagedYet = true
					}
					staged = append(staged, stagedYet)
					commitStep(t, s, len(perC), n)
					stamps := s.Database().EpochStamps()
					last := stamps[len(stamps)-1]
					if last.Epoch != int64(len(perC)) {
						t.Fatalf("step %d: newest stamp is for epoch %d, want %d", step, last.Epoch, len(perC))
					}
					walls = append(walls, last.Wall)
				case r < 8: // compact
					if _, err := s.Compact(); err != nil {
						t.Fatal(err)
					}
				case r == 8: // GC
					if _, err := s.GCEpochs(); err != nil {
						t.Fatal(err)
					}
				default: // restart
					if err := s.Close(); err != nil {
						t.Fatal(err)
					}
					s, err = flor.Open(dir, "tt-prop", flor.Options{RetainEpochs: 4})
					if err != nil {
						t.Fatal(err)
					}
					s.SetFilename("train.go")
					stagedYet = false // the workspace is not durable
				}

				commits := int64(len(perC))
				if got := s.Database().Epoch(); got != commits {
					t.Fatalf("step %d: epoch %d, want %d commits", step, got, commits)
				}
				for e := int64(0); e <= commits; e++ {
					got := stepsAsOf(t, s, e)
					// The fully-replayed prefix at e: every row of commits 1..e.
					var want []string
					for c := 1; c <= int(e); c++ {
						for j := 0; j < perC[c-1]; j++ {
							want = append(want, fmt.Sprintf("c%03d-%02d", c, j))
						}
					}
					sort.Strings(want)
					if len(got) != len(want) {
						t.Fatalf("step %d epoch %d: %d rows, want %d", step, e, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("step %d epoch %d row %d: %q != %q", step, e, i, got[i], want[i])
						}
					}
					var versions int64
					for c := 1; c <= int(e); c++ {
						if staged[c-1] {
							versions++
						}
					}
					if got := ts2vidAsOf(t, s, e); got != versions {
						t.Fatalf("step %d epoch %d: %d ts2vid rows, want %d staged commits", step, e, got, versions)
					}
					if e == 0 {
						continue
					}
					// Commit e's stamp resolves to the greatest epoch stamped
					// at or before it: e itself unless a later commit shares
					// the stamp.
					at := e
					for at < commits && walls[at] <= walls[e-1] {
						at++
					}
					if got, want := fmt.Sprint(stepsAsOfTime(t, s, walls[e-1])), fmt.Sprint(stepsAsOf(t, s, at)); got != want {
						t.Fatalf("step %d: AS OF TIMESTAMP of commit %d = %s, AS OF %d = %s", step, e, got, at, want)
					}
				}
			}
			s.Close()
		})
	}
}

// TestTimeTravelLargeProjectAcrossCompaction is the scale acceptance: a
// project with 100k logged rows over 10 commits answers correctly at all 10
// historical epochs after `flordb compact`-equivalent compaction.
func TestTimeTravelLargeProjectAcrossCompaction(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-row project; skipped with -short")
	}
	dir := t.TempDir()
	s, err := flor.Open(dir, "tt-big", flor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.SetFilename("train.go")
	const commits, perCommit = 10, 10_000
	for c := 1; c <= commits; c++ {
		for j := 0; j < perCommit; j++ {
			s.Log("metric", c*perCommit+j)
		}
		if err := s.Commit("bulk " + strconv.Itoa(c)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = flor.Open(dir, "tt-big", flor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Database().Epoch(); got != commits {
		t.Fatalf("epoch = %d, want %d", got, commits)
	}
	for e := 1; e <= commits; e++ {
		res, err := s.SQL("SELECT count(*) c FROM logs WHERE value_name = 'metric' AS OF " + strconv.Itoa(e))
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0].AsInt(); got != int64(e*perCommit) {
			t.Fatalf("epoch %d: count = %d, want %d", e, got, e*perCommit)
		}
	}
}
