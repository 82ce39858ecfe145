package flor

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flordb/internal/replay"
	"flordb/internal/script"
)

// TestConcurrentSnapshotEquivalenceRandomized is the snapshot-equivalence
// property test: readers pin committed-epoch snapshots while a writer logs
// and commits randomized transactions; a snapshot pinned at epoch E must
// return exactly what a serialized reader would have seen at the E-th commit
// boundary — never a partial transaction, never a missing committed one.
//
// The writer's transaction sizes are drawn from a seeded RNG, and the
// expected per-epoch state is precomputed as prefix sums, so every reader
// can check any epoch it happens to pin without coordinating with the
// writer. Run with -race: the readers and the writer share no locks.
func TestConcurrentSnapshotEquivalenceRandomized(t *testing.T) {
	s := memSession(t, Options{})
	s.SetFilename("eq.go")

	const txns = 120
	rng := rand.New(rand.NewSource(42))
	sizes := make([]int, txns)   // pairs logged by transaction k
	cum := make([]int64, txns+1) // cum[k] = pairs committed after k txns
	var sum int64
	for i := range sizes {
		sizes[i] = 1 + rng.Intn(4)
		sum += int64(sizes[i])
		cum[i+1] = sum
	}
	base := s.Database().Epoch()

	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for k := 0; k < txns; k++ {
			for j := 0; j < sizes[k]; j++ {
				s.Log("pair_a", k)
				s.Log("pair_b", k)
			}
			if err := s.Commit(""); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	countQ := func(v *SnapshotView, name string) int64 {
		res, err := v.SQL(fmt.Sprintf("SELECT count(*) AS n FROM logs WHERE value_name = '%s'", name))
		if err != nil {
			t.Error(err)
			return -1
		}
		return res.Rows[0][0].AsInt()
	}

	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 300; i++ {
				v, err := s.Reader()
				if err != nil {
					t.Error(err)
					return
				}
				k := v.Epoch() - base
				if k < 0 || k > txns {
					t.Errorf("epoch %d outside [%d, %d]", v.Epoch(), base, base+txns)
					return
				}
				want := cum[k]
				na := countQ(v, "pair_a")
				nb := countQ(v, "pair_b")
				if na != want || nb != want {
					t.Errorf("epoch %d: counts a=%d b=%d, serialized read would see %d", v.Epoch(), na, nb, want)
					return
				}
				// The pivot engine reads the same cut: logs and loops agree
				// inside one view even while the writer appends.
				if _, err := v.Dataframe("pair_a", "pair_b"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	readers.Wait()
	writer.Wait()

	// Quiescent equivalence: a fresh committed snapshot now agrees with the
	// session's own latest view, query by query.
	v, err := s.Reader()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"SELECT count(*) AS n FROM logs",
		"SELECT value_name, count(*) AS n FROM logs GROUP BY value_name ORDER BY value_name",
		"SELECT count(*) AS n FROM logs l JOIN logs r ON l.tstamp = r.tstamp WHERE l.value_name = 'pair_a' AND r.value_name = 'pair_b'",
	} {
		a, err := v.SQL(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.SQL(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Rows) != len(b.Rows) {
			t.Fatalf("quiescent mismatch for %q: %d vs %d rows", q, len(a.Rows), len(b.Rows))
		}
		for i := range a.Rows {
			for j := range a.Rows[i] {
				if a.Rows[i][j].Key() != b.Rows[i][j].Key() {
					t.Fatalf("quiescent mismatch for %q at row %d col %d", q, i, j)
				}
			}
		}
	}
	if got := cum[txns]; countQ(v, "pair_a") != got {
		t.Fatalf("final count mismatch")
	}
}

// TestConcurrentSQLRunScriptCompactStress drives the whole stack at once on
// a durable session: Flow scripts recording and committing, SQL and
// dataframe readers pinning snapshots, time-travel readers pinning random
// epochs, and the compactor folding WAL history — all concurrently, under -race, with
// segment rotation forced small so compaction actually has sealed segments
// to fold.
func TestConcurrentSQLRunScriptCompactStress(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "stress", Options{SegmentBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	base := s.Database().Epoch()

	const scripts = 12
	src := `
for i in flor.loop("iter", range(4)) {
    flor.log("stress_val", i)
}
`
	done := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		defer close(done)
		for i := 0; i < scripts; i++ {
			if err := s.RunScript(fmt.Sprintf("s%d.flow", i%3), src); err != nil {
				t.Error(err)
				return
			}
			if err := s.Commit("stress"); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var aux sync.WaitGroup
	// Readers: SQL point queries and dataframes against pinned snapshots.
	for g := 0; g < 3; g++ {
		aux.Add(1)
		go func() {
			defer aux.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				v, err := s.Reader()
				if err != nil {
					t.Error(err)
					return
				}
				_, err = v.SQL("SELECT count(*) AS n FROM logs WHERE value_name = 'stress_val'")
				if err == nil {
					_, err = v.Dataframe("stress_val")
				}
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := s.SQL("SELECT filename, count(*) AS n FROM logs GROUP BY filename"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// Time-travel reader: pins a random epoch of the whole history; a pinned
	// epoch e sees exactly the rows of the scripts committed by then.
	var asOfReads atomic.Int64
	aux.Add(1)
	go func() {
		defer aux.Done()
		rng := rand.New(rand.NewSource(1))
		for {
			select {
			case <-done:
				return
			default:
			}
			e := base + rng.Int63n(s.Database().Epoch()-base+1)
			v, err := s.ReaderAt(e)
			if err != nil {
				t.Error(err)
				return
			}
			res, err := v.SQL("SELECT count(*) AS n FROM logs WHERE value_name = 'stress_val'")
			if err != nil {
				t.Error(err)
				return
			}
			if got, want := res.Rows[0][0].AsInt(), 4*(e-base); got != want {
				t.Errorf("AS OF epoch %d: %d rows, want %d", e, got, want)
				return
			}
			asOfReads.Add(1)
		}
	}()
	// Compactor: fold sealed segments while everything else runs.
	aux.Add(1)
	go func() {
		defer aux.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := s.Compact(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	writer.Wait()
	aux.Wait()

	// The whole history: the time-travel reader ran, and at rest every
	// epoch reads exactly the rows committed by then.
	t.Run("asof-timetravel", func(t *testing.T) {
		if asOfReads.Load() == 0 {
			t.Fatal("the time-travel reader never ran")
		}
		for e := base; e <= s.Database().Epoch(); e++ {
			v, err := s.ReaderAt(e)
			if err != nil {
				t.Fatal(err)
			}
			res, err := v.SQL("SELECT count(*) AS n FROM logs WHERE value_name = 'stress_val'")
			if err != nil {
				t.Fatal(err)
			}
			if got, want := res.Rows[0][0].AsInt(), 4*(e-base); got != want {
				t.Fatalf("AS OF epoch %d at rest: %d rows, want %d", e, got, want)
			}
		}
	})

	// The rows compaction kept: the session's data survived the churn, and
	// a final compact + reopen proves durability was not disturbed.
	t.Run("compaction-churn", func(t *testing.T) {
		if _, err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		res, err := s.SQL("SELECT count(*) AS n FROM logs WHERE value_name = 'stress_val'")
		if err != nil {
			t.Fatal(err)
		}
		want := int64(scripts * 4)
		if got := res.Rows[0][0].AsInt(); got != want {
			t.Fatalf("stress rows = %d, want %d", got, want)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir, "stress", Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		res, err = s2.SQL("SELECT count(*) AS n FROM logs WHERE value_name = 'stress_val'")
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0].AsInt(); got != want {
			t.Fatalf("recovered stress rows = %d, want %d", got, want)
		}
	})
}

// TestConcurrentCloseDrainsReaders locks in the use-after-Close fix: Close
// refuses new work with ErrClosed and drains in-flight operations instead
// of yanking the WAL out from under them.
func TestConcurrentCloseDrainsReaders(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "closing", Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Log("x", 1)
	if err := s.Commit(""); err != nil {
		t.Fatal(err)
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 50; i++ {
				// Every public-API outcome is acceptable exactly once the
				// session is closed: a clean result or ErrClosed — never a
				// panic, never a write into a closed WAL.
				switch g % 4 {
				case 0:
					if _, err := s.SQL("SELECT count(*) AS n FROM logs"); err != nil && !errors.Is(err, ErrClosed) {
						t.Errorf("SQL: %v", err)
						return
					}
				case 1:
					if _, err := s.Reader(); err != nil && !errors.Is(err, ErrClosed) {
						t.Errorf("Reader: %v", err)
						return
					}
				case 2:
					s.Log("y", i) // must pass through silently after close
				case 3:
					if err := s.Commit(""); err != nil && !errors.Is(err, ErrClosed) {
						t.Errorf("Commit: %v", err)
						return
					}
				}
			}
		}(g)
	}
	close(start)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	// After close: hard ErrClosed on the query/write surface.
	if _, err := s.SQL("SELECT count(*) AS n FROM logs"); !errors.Is(err, ErrClosed) {
		t.Fatalf("SQL after close: %v", err)
	}
	if _, err := s.Reader(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Reader after close: %v", err)
	}
	if err := s.Commit(""); !errors.Is(err, ErrClosed) {
		t.Fatalf("Commit after close: %v", err)
	}
	if err := s.RunScript("f.flow", "x = 1\n"); !errors.Is(err, ErrClosed) {
		t.Fatalf("RunScript after close: %v", err)
	}
	if _, err := s.Compact(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Compact after close: %v", err)
	}
	if it := s.Loop("epoch", 3); it.Next() || !errors.Is(it.Err(), ErrClosed) {
		t.Fatalf("Loop after close: %v", it.Err())
	}
	if got := s.Log("z", 7); got.(int) != 7 {
		t.Fatalf("Log after close must pass through: %v", got)
	}
	// Close is idempotent.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Views pinned before close stay readable (pure in-memory state).
}

// TestConcurrentReadersScaleDuringWrites is the correctness companion to
// BenchmarkC12ConcurrentReads: snapshot readers observe stable results while
// a writer logs at full speed, and no reader ever errors or blocks on a
// lock held across a disk write.
func TestConcurrentReadersNeverSeeWriterNoise(t *testing.T) {
	s := memSession(t, Options{})
	s.SetFilename("w.go")
	for i := 0; i < 500; i++ {
		s.Log("stable", i)
	}
	if err := s.Commit("seed"); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		defer close(done)
		for i := 0; i < 30000; i++ {
			s.Log("noise", i) // never committed
		}
	}()
	var readers sync.WaitGroup
	for g := 0; g < 8; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				v, err := s.Reader()
				if err != nil {
					t.Error(err)
					return
				}
				res, err := v.SQL("SELECT count(*) AS n FROM logs WHERE value_name = 'noise'")
				if err != nil {
					t.Error(err)
					return
				}
				// The writer never commits, so committed snapshots must see
				// zero noise rows regardless of how many were published.
				if n := res.Rows[0][0].AsInt(); n != 0 {
					t.Errorf("committed snapshot saw %d uncommitted rows", n)
					return
				}
			}
		}()
	}
	readers.Wait()
	writer.Wait()
}

// TestConcurrentCommitsStampEveryEpoch: eight goroutines log and commit at
// once without fsyncs, so commits publish in whatever order they finish.
// The live session must end with exactly one stamp per epoch and one epoch
// per acknowledged commit — the map AS OF TIMESTAMP resolves against, and
// what a reopened project rebuilds from the log. Stamping apart from the
// advance loses a stamp whenever two commits publish out of order.
func TestConcurrentCommitsStampEveryEpoch(t *testing.T) {
	const workers, each, rounds = 8, 50, 20
	for round := 0; round < rounds && !t.Failed(); round++ {
		s, err := Open(t.TempDir(), "proj", Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		var acked atomic.Int64
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					s.Log("step", g*each+i)
					if err := s.Commit(""); err != nil {
						t.Errorf("worker %d commit %d: %v", g, i, err)
						return
					}
					acked.Add(1)
				}
			}(g)
		}
		wg.Wait()
		epoch := s.Database().Epoch()
		stamps := s.Database().EpochStamps()
		if epoch != acked.Load() {
			t.Errorf("round %d: epoch %d, %d commits were acknowledged", round, epoch, acked.Load())
		}
		if int64(len(stamps)) != epoch {
			t.Errorf("round %d: %d stamps for %d epochs", round, len(stamps), epoch)
		}
		for i, st := range stamps {
			if st.Epoch != int64(i+1) || (i > 0 && st.Wall < stamps[i-1].Wall) {
				t.Errorf("round %d: stamp %d is %+v after %+v", round, i, st, stamps[max(i-1, 0)])
				break
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentStagedCommitsEachKeepAVersion: eight goroutines stage and
// commit at once. Commit journals versions outside s.mu and one caller's Save
// persists every pending version, so whichever goroutine does the append a
// reopened project must still hold exactly one ts2vid row per acknowledged
// commit, and every row's version must resolve.
func TestConcurrentStagedCommitsEachKeepAVersion(t *testing.T) {
	const workers, each = 8, 25
	dir := t.TempDir()
	s, err := Open(dir, "proj", Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var acked atomic.Int64
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				s.StageFile(fmt.Sprintf("w%d.flow", g), fmt.Sprintf("rev = %d\n", i))
				s.Log("step", i)
				if err := s.Commit(""); err != nil {
					t.Errorf("worker %d commit %d: %v", g, i, err)
					return
				}
				acked.Add(1)
			}
		}(g)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = Open(dir, "proj", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if n := s.Repo().NumCommits(); int64(n) != acked.Load() {
		t.Fatalf("reopened version store has %d commits, %d were acknowledged", n, acked.Load())
	}
	seen := map[string]bool{}
	snap := s.Database().SnapshotLatest()
	ts2vid, _ := snap.Table("ts2vid")
	for _, row := range ts2vid.Rows() {
		vid := row[3].AsText()
		if seen[vid] {
			t.Fatalf("version %s has two ts2vid rows", vid)
		}
		seen[vid] = true
		if _, err := s.Repo().FilesAt(vid); err != nil {
			t.Fatalf("ts2vid names a version the reopened store cannot produce: %v", err)
		}
	}
	if int64(len(seen)) != acked.Load() {
		t.Fatalf("%d ts2vid rows after reopen, %d commits were acknowledged", len(seen), acked.Load())
	}
}

// TestConcurrentHindsightBesideRecording: a hindsight backfill reads history
// through its pins while a recorder runs and commits beside it. The backfill
// covers exactly the versions committed at its committed pin, and the loop
// contexts both create
// draw from one ctx_id allocator. The recorder's transactions end before the
// backfill's commit marker: a marker landing mid-transaction would commit it
// half done (DESIGN §3).
func TestConcurrentHindsightBesideRecording(t *testing.T) {
	const withProbe = `
epochs = flor.arg("epochs", 3)
net = make_model()
with flor.checkpointing(model=net) {
    for epoch in flor.loop("epoch", range(epochs)) {
        for step in flor.loop("step", range(2)) {
            bump(net)
        }
        with flor.iteration("probe", nil, "x") {
            flor.log("norm", probe(peek(net)))
        }
        flor.log("acc", peek(net))
    }
}
`
	s, err := Open(t.TempDir(), "hs", Options{Policy: replay.EveryN{N: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	registerCounterHosts(s)
	record := func() error {
		if err := s.RunScript("train.flow", sessTrainSrc); err != nil {
			return err
		}
		return s.Commit("run")
	}
	for i := 0; i < 3; i++ {
		if err := record(); err != nil {
			t.Fatal(err)
		}
	}
	committed, err := s.Versions("train.flow")
	if err != nil {
		t.Fatal(err)
	}

	// The first probe call, mid-replay, releases the recorder; every call
	// waits until it has committed.
	const epochs = 3
	started, recorded := make(chan struct{}), make(chan struct{})
	var startOnce sync.Once
	var probes atomic.Int64
	s.RegisterHost("probe", func(args []script.Value, _ map[string]script.Value) (script.Value, error) {
		startOnce.Do(func() { close(started) })
		select {
		case <-recorded:
		case <-time.After(time.Minute):
			return nil, errors.New("probe: the recorder never finished")
		}
		probes.Add(1)
		return args[0], nil
	})
	var recErr error
	var recorder sync.WaitGroup
	recorder.Add(1)
	go func() {
		defer recorder.Done()
		defer close(recorded)
		<-started
		for i := 0; i < 2 && recErr == nil; i++ {
			recErr = record()
		}
	}()
	reports, err := s.Hindsight("train.flow", withProbe, nil)
	startOnce.Do(func() { close(started) })
	recorder.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if recErr != nil {
		t.Fatal(recErr)
	}

	if len(reports) != len(committed) {
		t.Fatalf("hindsight backfilled %d versions, %d were committed at its pin", len(reports), len(committed))
	}
	for i, rep := range reports {
		if rep.Err != nil {
			t.Fatalf("version %d: %v", rep.Tstamp, rep.Err)
		}
		if rep.VID != committed[i].VID || rep.Tstamp != committed[i].Tstamp {
			t.Fatalf("report %d is version %d (%s), want %d (%s)", i, rep.Tstamp, rep.VID, committed[i].Tstamp, committed[i].VID)
		}
	}
	if all, err := s.Versions("train.flow"); err != nil || len(all) != len(committed)+2 {
		t.Fatalf("versions after the concurrent recording: %d (err %v), want %d", len(all), err, len(committed)+2)
	}
	if want := int64(epochs * len(committed)); probes.Load() != want {
		t.Fatalf("probe ran %d times, want %d", probes.Load(), want)
	}

	res, err := s.SQL("SELECT ctx_id, tstamp, loop_name FROM loops")
	if err != nil {
		t.Fatal(err)
	}
	owner := map[int64]string{}
	for _, r := range res.Rows {
		ctx, use := r[0].AsInt(), fmt.Sprintf("%s@%d", r[2].AsText(), r[1].AsInt())
		if prev, dup := owner[ctx]; dup {
			t.Fatalf("ctx_id %d used twice: %s and %s", ctx, prev, use)
		}
		owner[ctx] = use
	}
	// 5 recorded runs x epochs x (1 + 2 steps), plus one probe context per
	// backfilled epoch.
	if want := 5*epochs*3 + epochs*len(committed); len(owner) != want {
		t.Fatalf("loops rows = %d, want %d", len(owner), want)
	}
}

// TestConcurrentLogBesideSetFilename: the file name records are stamped with
// may change while another goroutine logs. Under -race the two must share no
// unsynchronized memory, and every row carries one of the names that was set.
func TestConcurrentLogBesideSetFilename(t *testing.T) {
	s, err := OpenMemory("fname", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 500
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			s.SetFilename(fmt.Sprintf("f%d.go", i%2))
		}
	}()
	for i := 0; i < n; i++ {
		s.Log("x", i)
	}
	wg.Wait()
	res, err := s.SQL("SELECT filename, count(*) FROM logs GROUP BY filename")
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, r := range res.Rows {
		if name := r[0].AsText(); name != "main" && name != "f0.go" && name != "f1.go" {
			t.Fatalf("a row is stamped with file %q, which was never set", name)
		}
		total += r[1].AsInt()
	}
	if total != n {
		t.Fatalf("%d rows logged, want %d", total, n)
	}
}
