// Crash-injection and durability tests for the snapshot-accelerated
// recovery path: every byte-truncation point of the WAL, a compaction
// killed at every step it performs, a randomized snapshot-plus-tail vs full-replay
// equivalence property, and concurrent commits racing a compaction.
package flor_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	flor "flordb"
	"flordb/internal/relation"
	"flordb/internal/storage"
	"flordb/internal/storage/storagetest"
	"flordb/internal/vcs"
)

// dumpSession renders every base-table row of a session as strings, for
// multiset comparison across recoveries.
func dumpSession(s *flor.Session) []string {
	snap := s.Database().SnapshotLatest()
	var out []string
	for _, name := range []string{"logs", "loops", "ts2vid", "obj_store", "args"} {
		tbl, _ := snap.Table(name)
		tbl.Scan(func(_ relation.RowID, r relation.Row) bool {
			line := tbl.Name()
			for _, v := range r {
				line += "|" + v.String()
			}
			out = append(out, line)
			return true
		})
	}
	sort.Strings(out)
	return out
}

// latestTable pins s's named base table at the in-flight write epoch for
// the rest of the test: every row the session holds.
func latestTable(t *testing.T, s *flor.Session, name string) *relation.TableSnapshot {
	t.Helper()
	snap := s.Database().SnapshotLatest()
	tbl, ok := snap.Table(name)
	if !ok {
		t.Fatalf("no table %q", name)
	}
	return tbl
}

func assertSameRows(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d\ngot:  %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d = %q, want %q", label, i, got[i], want[i])
		}
	}
}

// asOfTimestamp dumps the logs, loops, args and ts2vid rows a session
// answers AS OF TIMESTAMP wall (Unix nanoseconds), sorted.
func asOfTimestamp(t *testing.T, s *flor.Session, wall int64) []string {
	t.Helper()
	ts := time.Unix(0, wall).UTC().Format(time.RFC3339Nano)
	var out []string
	for _, tbl := range []string{"logs", "loops", "args", "ts2vid"} {
		res, err := s.SQL("SELECT * FROM " + tbl + " AS OF TIMESTAMP '" + ts + "'")
		if err != nil {
			t.Fatalf("%s AS OF TIMESTAMP %s: %v", tbl, ts, err)
		}
		for _, r := range res.Rows {
			line := tbl
			for _, v := range r {
				line += "|" + v.String()
			}
			out = append(out, line)
		}
	}
	sort.Strings(out)
	return out
}

// copyTree clones a project directory so each crash point starts from the
// same on-disk state.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		defer out.Close()
		_, err = io.Copy(out, in)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

type commitPoint struct {
	walSize int64    // active WAL size after the commit's flush
	rows    []string // committed table state at that point
}

// TestCrashInjectionTruncationMatrix records a known workload, then for
// every byte-truncation point of the WAL reopens the project and asserts the
// recovered tables equal exactly the longest committed prefix that survived
// — never an error, never a phantom uncommitted row. At a stride it also
// commits new work on top of the truncated log and reopens again, proving a
// later commit cannot resurrect truncated uncommitted records.
func TestCrashInjectionTruncationMatrix(t *testing.T) {
	base := t.TempDir()
	s, err := flor.Open(base, "proj", flor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.SetFilename("w.go")
	walFile := filepath.Join(base, ".flor", "flor.wal")
	points := []commitPoint{{walSize: 0, rows: nil}} // state before any commit

	capture := func() {
		st, err := os.Stat(walFile)
		if err != nil {
			t.Fatal(err)
		}
		points = append(points, commitPoint{walSize: st.Size(), rows: dumpSession(s)})
	}

	// Commit 1: plain logs plus a loop.
	s.Log("acc", 0.91)
	s.Log("note", "first")
	for it := s.Loop("epoch", 2); it.Next(); {
		s.Log("loss", 1.0/float64(it.Index()+1))
	}
	if err := s.Commit("c1"); err != nil {
		t.Fatal(err)
	}
	capture()

	// Commit 2: an arg resolution and a staged file (exercises ts2vid).
	s.ArgInt("hidden", 32)
	s.StageFile("w.flow", "x = 1\n")
	s.Log("acc", 0.93)
	if err := s.Commit("c2"); err != nil {
		t.Fatal(err)
	}
	capture()

	// Commit 3: more logs so the final commit has a multi-record body.
	s.Log("acc", 0.95)
	s.Log("recall", 0.88)
	if err := s.Commit("c3"); err != nil {
		t.Fatal(err)
	}
	capture()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	full, err := os.ReadFile(walFile)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(full)) != points[len(points)-1].walSize {
		t.Fatalf("wal size %d != last capture %d", len(full), points[len(points)-1].walSize)
	}

	for cut := 0; cut <= len(full); cut++ {
		want := points[0]
		for _, p := range points {
			if p.walSize <= int64(cut) {
				want = p
			}
		}
		cdir := t.TempDir()
		copyTree(t, base, cdir)
		cwal := filepath.Join(cdir, ".flor", "flor.wal")
		if err := os.WriteFile(cwal, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := flor.Open(cdir, "proj", flor.Options{})
		if err != nil {
			t.Fatalf("truncation at byte %d: open failed: %v", cut, err)
		}
		assertSameRows(t, fmt.Sprintf("truncation at byte %d", cut), dumpSession(s2), want.rows)

		// Resurrection check (strided: each reopen-and-commit is 2 more
		// recoveries): new committed work must not revive the truncated
		// uncommitted tail.
		if cut%13 == 0 || cut == len(full) {
			s2.Log("post", int64(cut))
			if err := s2.Commit("post-crash"); err != nil {
				t.Fatal(err)
			}
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}
			s3, err := flor.Open(cdir, "proj", flor.Options{})
			if err != nil {
				t.Fatalf("reopen after post-crash commit at %d: %v", cut, err)
			}
			got := dumpSession(s3)
			var posts, known int
			for _, row := range got {
				switch {
				case containsField(row, "post"):
					posts++
				default:
					known++
				}
			}
			if posts != 1 || known != len(want.rows) {
				t.Fatalf("truncation at %d: after new commit got %d post rows and %d old rows (want 1, %d): %v",
					cut, posts, known, len(want.rows), got)
			}
			assertSameRows(t, fmt.Sprintf("old rows after new commit at %d", cut), without(got, "post"), want.rows)
			s3.Close()
		} else {
			s2.Close()
		}
	}
}

func containsField(row, field string) bool {
	for _, part := range splitRow(row) {
		if part == field {
			return true
		}
	}
	return false
}

func splitRow(row string) []string {
	var parts []string
	start := 0
	for i := 0; i < len(row); i++ {
		if row[i] == '|' {
			parts = append(parts, row[start:i])
			start = i + 1
		}
	}
	return append(parts, row[start:])
}

func without(rows []string, field string) []string {
	var out []string
	for _, r := range rows {
		if !containsField(r, field) {
			out = append(out, r)
		}
	}
	return out
}

// TestCrashInjectionCompactionKillPoints kills a compaction at every step a
// clean one performs — the seal, the snapshot temp file's open and every
// write (whole and torn), its fsync, rename and directory fsync, every
// segment delete — then reopens and asserts the recovered state is exactly
// the pre-compaction committed state, and that a subsequent compaction
// completes the interrupted cycle. The kill points are grouped by the phase
// of DESIGN §7 invariant 4 they fall in, and every phase must have one. The
// cycle is incremental: the project already holds a snapshot with two
// complete logs pages, which every killed compaction reads and copies, and
// the delta crosses the next page boundary.
func TestCrashInjectionCompactionKillPoints(t *testing.T) {
	base := t.TempDir()
	s, err := flor.Open(base, "proj", flor.Options{SegmentBytes: 600})
	if err != nil {
		t.Fatal(err)
	}
	s.SetFilename("w.go")
	logN := func(c, n int) {
		for i := 0; i < n; i++ {
			s.Log("acc", 0.8+float64(c)/100)
		}
		s.Log("step", int64(c))
		if err := s.Commit(fmt.Sprintf("c%d", c)); err != nil {
			t.Fatal(err)
		}
	}
	for c := 0; c < 5; c++ {
		logN(c, 499) // 2,500 logs rows: two complete pages and a partial one
	}
	if st, err := s.Compact(); err != nil || st.SnapshotSeq == 0 {
		t.Fatalf("base compaction: %+v, %v", st, err)
	}
	for c := 5; c < 11; c++ {
		logN(c, 99) // to 3,100 rows, across the page boundary at 3,072
	}
	// A commit that does not fill a segment leaves the seal a rotation.
	s.Log("tail", int64(1))
	if err := s.Commit("tail"); err != nil {
		t.Fatal(err)
	}
	want := dumpSession(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if segs, _ := storage.ListSegments(filepath.Join(base, ".flor", "flor.wal")); len(segs) < 2 {
		t.Fatalf("workload sealed only %d segments; matrix needs several", len(segs))
	}

	// compact copies the project and runs one compaction on the copy, every
	// write going through fsys.
	compact := func(t *testing.T, fsys storage.FS) (string, storage.CompactStats, error) {
		dir := t.TempDir()
		copyTree(t, base, dir)
		w, err := storage.OpenWAL(filepath.Join(dir, ".flor", "flor.wal"), storage.Options{FS: fsys})
		if err != nil {
			return dir, storage.CompactStats{}, err
		}
		blobs, err := storage.NewBlobStore(filepath.Join(dir, ".flor", "objects"))
		if err != nil {
			t.Fatal(err)
		}
		st, err := (&storage.Compactor{WAL: w, Blobs: blobs}).Compact()
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		return dir, st, err
	}
	rec := storagetest.Recorder()
	dir, st, err := compact(t, rec)
	if err != nil {
		t.Fatal(err)
	}
	if st.PagesCopied != 2 {
		t.Fatalf("the clean compaction copied %d pages, want the base's 2 complete logs pages", st.PagesCopied)
	}
	trace := rec.Trace()
	snaps, _ := storage.ListSnapshots(filepath.Join(dir, ".flor", "flor.wal"))
	if len(snaps) == 0 || !storagetest.Installed(trace, snaps[len(snaps)-1].Path) {
		t.Fatalf("the snapshot is not installed by temp fsync, rename, dir-fsync: %v", trace)
	}
	phases := storagetest.CompactionPhases(trace)
	t.Logf("compaction kill matrix: %d kill points", len(storagetest.Points(trace)))

	run := func(t *testing.T, p storagetest.Point) {
		dir, _, err := compact(t, storagetest.Crash(p))
		if p.Step > 0 && !errors.Is(err, storagetest.ErrKilled) {
			t.Fatalf("kill did not surface: %v", err)
		}
		if p.Step == 0 && err != nil {
			t.Fatal(err)
		}
		// The "crashed" project must recover to exactly the committed state.
		s2, err := flor.Open(dir, "proj", flor.Options{})
		if err != nil {
			t.Fatalf("open after crash: %v", err)
		}
		assertSameRows(t, "after crash", dumpSession(s2), want)

		// And the interrupted compaction completes on retry.
		if _, err := s2.Compact(); err != nil {
			t.Fatalf("compaction retry: %v", err)
		}
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
		s3, err := flor.Open(dir, "proj", flor.Options{})
		if err != nil {
			t.Fatal(err)
		}
		assertSameRows(t, "after retried compaction", dumpSession(s3), want)
		snaps, _ := storage.ListSnapshots(filepath.Join(dir, ".flor", "flor.wal"))
		if len(snaps) == 0 {
			t.Fatal("no snapshot installed after retry")
		}
		s3.Close()
	}
	t.Run("none", func(t *testing.T) { run(t, storagetest.Point{}) })
	for _, ph := range phases {
		if len(ph.Points) == 0 {
			t.Fatalf("no kill point %s: the compaction skipped that step", ph.Name)
		}
		t.Run(ph.Name, func(t *testing.T) {
			for _, p := range ph.Points {
				t.Run(p.String(), func(t *testing.T) { run(t, p) })
			}
		})
	}
}

// TestSnapshotPlusTailEqualsFullReplayProperty drives two project
// directories through an identical randomized workload — one compacting
// aggressively with tiny segments, one never compacting — and asserts their
// recovered states are row-multiset equal across all tables, for several
// seeds, and agree on the epoch, the commit stamps and the AS OF
// TIMESTAMP answer at each commit's wall stamp. This is the property that
// makes compaction a pure optimization.
func TestSnapshotPlusTailEqualsFullReplayProperty(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed * 7919))
			dirA := t.TempDir()
			dirB := t.TempDir()
			a, err := flor.Open(dirA, "prop", flor.Options{SegmentBytes: 256, SnapshotEvery: 3})
			if err != nil {
				t.Fatal(err)
			}
			b, err := flor.Open(dirB, "prop", flor.Options{SegmentBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			both := []*flor.Session{a, b}
			for _, s := range both {
				s.SetFilename("w.go")
			}
			names := []string{"acc", "loss", "recall", "note"}
			for i := 0; i < 150; i++ {
				switch rng.Intn(10) {
				case 0, 1, 2, 3:
					name := names[rng.Intn(len(names))]
					val := any(rng.Int63n(100))
					switch rng.Intn(4) {
					case 0:
						val = rng.Float64()
					case 1:
						val = fmt.Sprintf("s%d", rng.Intn(5))
					case 2:
						val = rng.Intn(2) == 0
					}
					for _, s := range both {
						s.Log(name, val)
					}
				case 4, 5:
					n := 1 + rng.Intn(3)
					for _, s := range both {
						for it := s.Loop("epoch", n); it.Next(); {
							s.Log("inner", int64(it.Index()))
						}
					}
				case 6:
					def := rng.Int63n(64)
					for _, s := range both {
						s.ArgInt("hidden", def)
					}
				case 7, 8:
					for _, s := range both {
						if err := s.Commit(""); err != nil {
							t.Fatal(err)
						}
					}
				case 9:
					// Extra compactions on A only: the property says they
					// must be invisible.
					if _, err := a.Compact(); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Roughly half the seeds end with an uncommitted tail, which
			// strict recovery must drop identically on both sides.
			if rng.Intn(2) == 0 {
				for _, s := range both {
					if err := s.Commit("final"); err != nil {
						t.Fatal(err)
					}
				}
			}
			if _, err := a.Compact(); err != nil {
				t.Fatal(err)
			}
			stampsA, stampsB := a.Database().EpochStamps(), b.Database().EpochStamps()
			a.Close()
			b.Close()

			ra, err := flor.Open(dirA, "prop", flor.Options{})
			if err != nil {
				t.Fatal(err)
			}
			rb, err := flor.Open(dirB, "prop", flor.Options{})
			if err != nil {
				t.Fatal(err)
			}
			assertSameRows(t, "snapshot+tail vs full replay", dumpSession(ra), dumpSession(rb))
			if ra.Tstamp() != rb.Tstamp() {
				t.Fatalf("tstamp diverged: %d vs %d", ra.Tstamp(), rb.Tstamp())
			}
			if ea, eb := ra.Database().Epoch(), rb.Database().Epoch(); ea != eb || ea != int64(len(stampsA)) {
				t.Fatalf("epoch diverged: %d vs %d, want %d commits", ea, eb, len(stampsA))
			}
			// Each session committed at its own wall clock: the i-th commit's
			// stamp must resolve to the same state on both sides.
			if len(stampsA) != len(stampsB) {
				t.Fatalf("stamps diverged: %d vs %d", len(stampsA), len(stampsB))
			}
			// Each recovered session holds exactly the stamps its live one
			// published, whether from a snapshot or the log.
			if got := fmt.Sprint(ra.Database().EpochStamps()); got != fmt.Sprint(stampsA) {
				t.Fatalf("snapshot+tail recovered stamps %s, live %v", got, stampsA)
			}
			if got := fmt.Sprint(rb.Database().EpochStamps()); got != fmt.Sprint(stampsB) {
				t.Fatalf("full replay recovered stamps %s, live %v", got, stampsB)
			}
			for i := range stampsA {
				assertSameRows(t, fmt.Sprintf("AS OF TIMESTAMP of commit %d", stampsA[i].Epoch),
					asOfTimestamp(t, ra, stampsA[i].Wall), asOfTimestamp(t, rb, stampsB[i].Wall))
			}
			if segs, _ := storage.ListSegments(filepath.Join(dirB, ".flor", "flor.wal")); len(segs) != 0 {
				t.Fatalf("control session rotated segments: %v", segs)
			}
			ra.Close()
			rb.Close()
		})
	}
}

// TestConcurrentCommitsAndCompaction runs N goroutines logging and
// committing into one session while compactions run, then reopens and
// asserts no committed record was lost. Run under -race in CI.
func TestConcurrentCommitsAndCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := flor.Open(dir, "race", flor.Options{SegmentBytes: 512, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	s.SetFilename("w.go")
	const writers, perWriter = 4, 25
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("g%d", g)
			for i := 0; i < perWriter; i++ {
				s.Log(name, int64(i))
				if err := s.Commit(""); err != nil {
					t.Errorf("writer %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	compacted := make(chan struct{})
	go func() {
		defer close(compacted)
		for i := 0; i < 8; i++ {
			if _, err := s.Compact(); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-compacted
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := flor.Open(dir, "race", flor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	counts := make(map[string]int)
	latestTable(t, s2, "logs").Scan(func(_ relation.RowID, r relation.Row) bool {
		counts[r[4].AsText()]++
		return true
	})
	for g := 0; g < writers; g++ {
		name := fmt.Sprintf("g%d", g)
		if counts[name] != perWriter {
			t.Fatalf("writer %s: recovered %d of %d committed records", name, counts[name], perWriter)
		}
	}
}

// versionPoint is one acknowledged commit of the journal-ordering property.
type versionPoint struct {
	walSize int64             // active WAL size once the commit returned
	vid     string            // "" for a commit that staged nothing
	files   map[string]string // the workspace the version must check out to
}

// TestCrashJournalBeforeWALProperty holds crash-ordering invariant 5 (DESIGN
// §7): a version is fsynced into repo.json before the WAL commit record that
// names it. Over a seeded mix of staged and unstaged commits it simulates
// every crash that ordering allows — each cut of repo.json inside its last
// three records, paired with WAL cuts (strided like the truncation matrix)
// short of the commit record of the first version the journal cut lost — and
// after Open demands: every ts2vid row is an acknowledged commit whose
// version checks out to the bytes staged, no commit the WAL kept is missing,
// a staged commit on top succeeds, and a reopen after that holds all of it.
// A damaged middle record, which no crash produces, must fail Open with
// vcs.ErrCorrupt rather than load a shorter history.
func TestCrashJournalBeforeWALProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	base := t.TempDir()
	walFile := filepath.Join(base, ".flor", "flor.wal")
	repoFile := filepath.Join(base, ".flor", "repo.json")
	var points []versionPoint
	// A session starts with nothing staged, so unstaged commits need their
	// own sessions: each does a few, then stages and commits a few more.
	for sess := 0; sess < 3; sess++ {
		s, err := flor.Open(base, "proj", flor.Options{})
		if err != nil {
			t.Fatal(err)
		}
		s.SetFilename("w.flow")
		unstaged := rng.Intn(3)
		for c, n := 0, unstaged+1+rng.Intn(2); c < n; c++ {
			p := versionPoint{}
			if c >= unstaged {
				src := fmt.Sprintf("rev = %d\n", rng.Intn(3)) // sometimes a blob the store already has
				s.StageFile("w.flow", src)
				p.files = map[string]string{"w.flow": src}
			}
			s.Log("acc", rng.Float64())
			if err := s.Commit(""); err != nil {
				t.Fatal(err)
			}
			if p.files != nil {
				p.vid = s.Repo().Head()
			}
			st, err := os.Stat(walFile)
			if err != nil {
				t.Fatal(err)
			}
			p.walSize = st.Size()
			points = append(points, p)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	wal, err := os.ReadFile(walFile)
	if err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(repoFile)
	if err != nil {
		t.Fatal(err)
	}
	var staged []versionPoint // in journal record order
	for _, p := range points {
		if p.vid != "" {
			staged = append(staged, p)
		}
	}
	recordEnds := []int{0} // recordEnds[k] is the journal size holding k records
	for i, b := range journal {
		if b == '\n' {
			recordEnds = append(recordEnds, i+1)
		}
	}
	if len(recordEnds)-1 != len(staged) || len(staged) < 3 {
		t.Fatalf("journal has %d records for %d staged commits", len(recordEnds)-1, len(staged))
	}

	// check opens dir and compares ts2vid and the version store with the
	// commits whose WAL commit record survived walCut.
	check := func(label, dir string, walCut int, extra ...versionPoint) *flor.Session {
		t.Helper()
		// NoSync: the cut files are the crash; nothing here observes an fsync.
		s, err := flor.Open(dir, "proj", flor.Options{NoSync: true})
		if err != nil {
			t.Fatalf("%s: open: %v", label, err)
		}
		want := map[string]map[string]string{}
		for _, p := range append(append([]versionPoint{}, points...), extra...) {
			if p.vid != "" && p.walSize <= int64(walCut) {
				want[p.vid] = p.files
			}
		}
		rows := latestTable(t, s, "ts2vid").Rows()
		if len(rows) != len(want) {
			t.Fatalf("%s: %d ts2vid rows, want %d", label, len(rows), len(want))
		}
		for _, row := range rows {
			vid := row[3].AsText()
			files, err := s.Repo().FilesAt(vid)
			if err != nil {
				t.Fatalf("%s: ts2vid names a version that does not resolve: %v", label, err)
			}
			if fmt.Sprint(files) != fmt.Sprint(want[vid]) {
				t.Fatalf("%s: version %s checks out %v, want %v", label, vid, files, want[vid])
			}
		}
		return s
	}

	// Journal cuts: per record, none of it, one byte, half, and all but the
	// newline that would have committed it; then the whole file.
	var jcuts []int
	for k := len(staged) - 3; k < len(staged); k++ {
		lo, hi := recordEnds[k], recordEnds[k+1]
		jcuts = append(jcuts, lo, lo+1, (lo+hi)/2, hi-1)
	}
	jcuts = append(jcuts, len(journal))

	cases := 0
	for _, jcut := range jcuts {
		kept := sort.SearchInts(recordEnds, jcut+1) - 1 // whole records below the cut
		walLimit := len(wal)
		if kept < len(staged) {
			walLimit = int(staged[kept].walSize) - 1 // that version's commit record never completed
		}
		for wcut := walLimit; wcut >= 0; wcut -= 13 {
			cases++
			label := fmt.Sprintf("journal cut %d (%d records), wal cut %d", jcut, kept, wcut)
			cdir := t.TempDir()
			copyTree(t, base, cdir)
			if err := os.WriteFile(filepath.Join(cdir, ".flor", "repo.json"), journal[:jcut], 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(cdir, ".flor", "flor.wal"), wal[:wcut], 0o644); err != nil {
				t.Fatal(err)
			}
			s := check(label, cdir, wcut)
			if cases%5 != 0 && wcut != walLimit {
				s.Close()
				continue
			}
			// Life goes on: the torn journal tail is truncated by this
			// commit's append, and nothing before it moves.
			top := versionPoint{files: map[string]string{"w.flow": "rev = after the crash\n"}}
			s.StageFile("w.flow", top.files["w.flow"])
			s.Log("acc", 1.0)
			if err := s.Commit("post-crash"); err != nil {
				t.Fatalf("%s: commit on top: %v", label, err)
			}
			top.vid = s.Repo().Head()
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			check(label+", reopened after a commit on top", cdir, wcut, top).Close()
		}
	}
	t.Logf("%d crash cases", cases)

	// Damage no crash produces: a flipped byte in a middle record.
	cdir := t.TempDir()
	copyTree(t, base, cdir)
	bad := append([]byte(nil), journal...)
	bad[(recordEnds[1]+recordEnds[2])/2] ^= 0x01
	if err := os.WriteFile(filepath.Join(cdir, ".flor", "repo.json"), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := flor.Open(cdir, "proj", flor.Options{}); !errors.Is(err, vcs.ErrCorrupt) {
		if s != nil {
			s.Close()
		}
		t.Fatalf("open over a damaged middle record: err %v, want vcs.ErrCorrupt", err)
	}
}

// TestProjectWrittenBeforeTheJournalOpens: testdata/parent_project is a
// project directory written by the commit before repo.json became a journal
// (three staged commits, whole-state repo.json). It must open, resolve every
// version, take a commit as one appended record after the untouched legacy
// bytes, and reopen with all four.
func TestProjectWrittenBeforeTheJournalOpens(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "parent_project"), dir)
	repoFile := filepath.Join(dir, ".flor", "repo.json")
	legacy, err := os.ReadFile(repoFile)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"lr = 0.1\n", "lr = 0.1\n", "lr = 0.01\n"}
	check := func(s *flor.Session) {
		t.Helper()
		rows := latestTable(t, s, "ts2vid").Rows()
		if len(rows) != len(want) {
			t.Fatalf("%d ts2vid rows, want %d", len(rows), len(want))
		}
		for _, row := range rows {
			files, err := s.Repo().FilesAt(row[3].AsText())
			if err != nil {
				t.Fatal(err)
			}
			if got := files["train.flow"]; got != want[row[1].AsInt()-1] {
				t.Fatalf("tstamp %d checks out %q, want %q", row[1].AsInt(), got, want[row[1].AsInt()-1])
			}
		}
	}

	s, err := flor.Open(dir, "proj", flor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	check(s)
	// The MVCC clock rebuilt from the log: one epoch per commit record,
	// stamped with that record's own wall time.
	stamps := s.Database().EpochStamps()
	if got := s.Database().Epoch(); got != 3 || len(stamps) != 3 {
		t.Fatalf("epoch %d with stamps %v, want 3 of each", got, stamps)
	}
	for i, wall := range []string{"2026-09-27T06:29:07.207913481Z", "2026-09-27T06:29:07.209255597Z", "2026-09-27T06:29:07.210345855Z"} {
		ts, err := time.Parse(time.RFC3339Nano, wall)
		if err != nil {
			t.Fatal(err)
		}
		if want := (relation.EpochStamp{Epoch: int64(i + 1), Wall: ts.UnixNano()}); stamps[i] != want {
			t.Fatalf("stamp %d = %+v, want %+v", i, stamps[i], want)
		}
	}
	want = append(want, "lr = 0.001\n")
	s.SetFilename("train.flow")
	s.StageFile("train.flow", want[3])
	s.Log("loss", 0.2)
	if err := s.Commit("run 3"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	now, err := os.ReadFile(repoFile)
	if err != nil {
		t.Fatal(err)
	}
	if tail, ok := bytes.CutPrefix(now, legacy); !ok || bytes.Count(tail, []byte{'\n'}) != 2 {
		t.Fatalf("after one commit repo.json is not the legacy bytes, a newline and one record: %d -> %d bytes", len(legacy), len(now))
	}
	s, err = flor.Open(dir, "proj", flor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	check(s)
}
