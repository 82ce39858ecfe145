// The lifecycle model test: one seeded schedule of what a project lives
// through — logging, staging, commits, compactions, restarts, crashes, and a
// follower that bootstraps from a snapshot, restarts and is promoted — checked
// after every op against one pure model, the list of committed transactions.
// At every committed epoch e, every reader of every store must answer as the
// model's first e transactions. The shape is QuickCheck's state-machine
// testing (Claessen & Hughes, ICFP 2000).
package flor_test

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	flor "flordb"
	"flordb/internal/repl"
	"flordb/internal/sqlparse"
	"flordb/internal/storage"
)

type opKind int

const (
	opLog             opKind = iota // log arg rows into the open transaction
	opStage                         // stage revision arg of a file (stagedFile)
	opCommit                        // commit, with readers pinning epochs beside it
	opCompact                       // compact, with readers pinning epochs beside it
	opReopen                        // Close, then Open
	opCrash                         // copy .flor without Close, cut the active WAL (arg places the cut), Open the copy
	opFollow                        // compact, then start an empty follower: snapshot bootstrap
	opRestartFollower               // kill the follower and start it over its directory
	opCatchUp                       // seal the primary's tail and wait until the follower applied it
	opPromote                       // the primary dies and the caught-up follower is promoted
	numOpKinds
)

var opNames = [numOpKinds]string{"log", "stage", "commit", "compact", "reopen", "crash", "follow", "restart-follower", "catch-up", "promote"}

type lifecycleOp struct {
	kind opKind
	arg  int
}

func (o lifecycleOp) String() string {
	if o.kind <= opStage || o.kind == opCrash {
		return fmt.Sprintf("%s %d", opNames[o.kind], o.arg)
	}
	return opNames[o.kind]
}

// stagedFile is the file and contents revision rev stages: two files, and
// few revisions, so versions differ in one file or both and contents recur.
func stagedFile(rev int) (name, contents string) {
	return []string{"train.flow", "prep.flow"}[rev%2], fmt.Sprintf("rev = %d\n", rev/2)
}

// lifecycleSchedule draws n ops from seed. It tracks what preconditions need:
// a follower starts on a primary with a commit, and catch-up and promote need
// the primary's whole history sealable, so nothing uncommitted.
func lifecycleSchedule(seed int64, n int) []lifecycleOp {
	rng := rand.New(rand.NewSource(seed))
	var ops []lifecycleOp
	pending, committed, following := false, false, false
	for len(ops) < n {
		o := lifecycleOp{}
		switch r := rng.Intn(20); {
		case r < 6:
			o, pending = lifecycleOp{opLog, 1 + rng.Intn(8)}, true
			if rng.Intn(4) == 0 {
				o.arg = 300 + rng.Intn(600) // most of a zone page in one transaction
			}
		case r < 7:
			o = lifecycleOp{opStage, rng.Intn(6)}
		case r < 11:
			o.kind, pending, committed = opCommit, false, true
		case r < 13:
			o.kind = opCompact
		case r < 14:
			o.kind, pending = opReopen, false
		case r < 15:
			o, pending = lifecycleOp{opCrash, rng.Intn(1 << 30)}, false
		case r < 17 && !following && committed && !pending:
			o.kind, following = opFollow, true
		case r == 17 && following:
			o.kind = opRestartFollower
		case r == 18 && following && !pending:
			o.kind = opCatchUp
		case r == 19 && following && !pending:
			o.kind, following = opPromote, false
		default:
			continue
		}
		ops = append(ops, o)
	}
	return ops
}

type logRow struct{ name, value string }

// txn is one committed transaction of the model.
type txn struct {
	tstamp int64
	rows   []logRow
	files  map[string]string // the workspace it versioned; nil when nothing was staged
	digest []string          // its lines of digestQuery's answer, sorted
	wall   int64             // the stamp the live store gave its epoch
}

// digestQuery summarizes the logs a reader sees in one line per transaction
// and name: a transaction's rows share its tstamp and every value is unique,
// so a lost, extra or foreign row changes a line.
const digestQuery = "SELECT tstamp, value_name, count(*), min(value), max(value) FROM logs GROUP BY tstamp, value_name"

const digestLine = "%06d|%s|%d|%s|%s"

func newTxn(tstamp int64, rows []logRow, files map[string]string) *txn {
	x := &txn{tstamp: tstamp, rows: rows, files: files}
	byName := map[string][]string{}
	for _, r := range rows {
		byName[r.name] = append(byName[r.name], r.value)
	}
	for name, vals := range byName {
		sort.Strings(vals)
		x.digest = append(x.digest, fmt.Sprintf(digestLine, tstamp, name, len(vals), vals[0], vals[len(vals)-1]))
	}
	sort.Strings(x.digest)
	return x
}

// wantDigest is digestQuery's answer over txns as renderDigest sorts it: by
// tstamp, which grows with the epoch, then by name.
func wantDigest(txns []*txn) string {
	var lines []string
	for _, x := range txns {
		lines = append(lines, x.digest...)
	}
	return strings.Join(lines, "\n")
}

func renderDigest(res *sqlparse.Result) string {
	lines := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		lines[i] = fmt.Sprintf(digestLine, r[0].AsInt(), r[1].AsText(), r[2].AsInt(), r[3].AsText(), r[4].AsText())
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// firstDiff says where two newline-joined answers first differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got+"\n", "\n"), strings.Split(want+"\n", "\n")
	i := 0
	for i < min(len(g), len(w))-1 && g[i] == w[i] {
		i++
	}
	return fmt.Sprintf("%d lines, want %d; line %d is %q, want %q", len(g)-1, len(w)-1, i, g[i], w[i])
}

// lifecycle runs one schedule against one model.
type lifecycle struct {
	t     *testing.T
	seed  int64
	ops   []lifecycleOp
	at    int        // the op being run
	rng   *rand.Rand // the checks' draws
	segB  int64      // Options.SegmentBytes of every store
	every int        // Options.SnapshotEvery of every store

	mu   sync.Mutex // guards txns against the readers beside an op
	txns []*txn     // the model: epoch e is txns[:e]

	dir         string // the primary's project directory
	s           *flor.Session
	durable     int64             // active WAL size when the primary last held nothing uncommitted
	pending     []logRow          // logged since the primary's last commit
	workspace   map[string]string // staged on the primary since it opened
	journalFrom int               // commits up to this tstamp have no version in the primary's repo.json

	routes atomic.Value // http.Handler: the primary's replication routes
	srv    *httptest.Server
	fdir   string
	f      *repl.Follower
	fstop  func() // cancels the follower's Run and waits for it
}

// model returns the committed transactions, and the one being committed.
func (l *lifecycle) model() []*txn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.txns[:len(l.txns):len(l.txns)]
}

func (l *lifecycle) opts() flor.Options {
	o := flor.Options{SegmentBytes: l.segB, SnapshotEvery: l.every}
	if l.f != nil {
		// A restarted primary forgets the follower's acks until it polls
		// again; keep its catch-up window meanwhile.
		o.RetainSegments = 256
	}
	return o
}

func (l *lifecycle) where() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d, op %d (%s); ops 0..%d:", l.seed, l.at, l.ops[l.at], l.at)
	for i, o := range l.ops[:l.at+1] {
		fmt.Fprintf(&b, "\n  %2d %s", i, o)
	}
	return b.String()
}

func (l *lifecycle) fatalf(format string, args ...any) {
	l.t.Helper()
	l.t.Fatalf("%s\n%s", l.where(), fmt.Sprintf(format, args...))
}

func (l *lifecycle) must(err error, what string) {
	l.t.Helper()
	if err != nil {
		l.fatalf("%s: %v", what, err)
	}
}

// runLifecycle runs the schedule of seed, checking every store after every op.
func runLifecycle(t *testing.T, seed int64) {
	runSchedule(t, seed, lifecycleSchedule(seed, 40))
}

// runSchedule runs ops, drawn from seed, checking every store after every op.
func runSchedule(t *testing.T, seed int64, ops []lifecycleOp) {
	rng := rand.New(rand.NewSource(seed))
	l := &lifecycle{
		t: t, seed: seed, ops: ops, rng: rng,
		segB:  []int64{1, 700, 1 << 20}[rng.Intn(3)],
		every: []int{0, 0, 3}[rng.Intn(3)],
	}
	dir := t.TempDir() // first, so its removal is the last cleanup
	l.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		l.routes.Load().(http.Handler).ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		l.stopFollower()
		l.srv.Close()
		if l.s != nil {
			l.s.Close()
		}
	})
	l.open(dir)
	for l.at = range l.ops {
		l.step(l.ops[l.at])
		l.check()
	}
}

// open opens the primary over dir.
func (l *lifecycle) open(dir string) {
	l.t.Helper()
	s, err := flor.Open(dir, "lifecycle", l.opts())
	l.must(err, "open")
	l.become(dir, s)
}

// become makes s, over dir, the primary: a fresh workspace, served to
// followers.
func (l *lifecycle) become(dir string, s *flor.Session) {
	s.SetFilename("train.go")
	l.dir, l.s = dir, s
	l.pending, l.workspace = nil, map[string]string{}
	p := repl.NewPrimary(s)
	p.LongPollInterval = 5 * time.Millisecond
	l.routes.Store(p.Routes())
}

func (l *lifecycle) startFollower() {
	l.t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	f, err := repl.StartFollower(ctx, repl.FollowerConfig{
		PrimaryURL: l.srv.URL, Dir: l.fdir, ProjID: "lifecycle", Open: l.opts(),
		PollWait: 20 * time.Millisecond, Backoff: repl.Backoff{Min: 2 * time.Millisecond, Max: 20 * time.Millisecond},
	})
	if err != nil {
		cancel()
		l.fatalf("start follower: %v", err)
	}
	done := make(chan struct{})
	go func() { defer close(done); f.Run(ctx) }()
	l.f, l.fstop = f, func() { cancel(); <-done }
}

// stopFollower kills the follower. Run is joined before Close, so no fetch
// lands in its directory once the session is gone.
func (l *lifecycle) stopFollower() {
	if l.f != nil {
		l.fstop()
		l.f.Close()
		l.f = nil
	}
}

// awaitFollower seals the primary's tail and waits until the follower has
// applied every commit.
func (l *lifecycle) awaitFollower() {
	l.t.Helper()
	_, err := l.s.Compact()
	l.must(err, "seal the primary's tail")
	var top int64
	if segs, _ := storage.ListSegments(l.s.WALPath()); len(segs) > 0 {
		top = segs[len(segs)-1].Seq
	}
	if snaps, _ := storage.ListSnapshots(l.s.WALPath()); len(snaps) > 0 {
		top = max(top, snaps[len(snaps)-1].Seq)
	}
	for deadline := time.Now().Add(20 * time.Second); l.f.Applied() < top; time.Sleep(2 * time.Millisecond) {
		l.must(l.f.Fault(), "follower fault")
		if time.Now().After(deadline) {
			l.fatalf("follower stuck at segment %d, want %d", l.f.Applied(), top)
		}
	}
	if got, want := l.f.Session().Database().Epoch(), len(l.model()); got != int64(want) {
		l.fatalf("caught-up follower at epoch %d, want %d", got, want)
	}
}

func (l *lifecycle) step(o lifecycleOp) {
	l.t.Helper()
	switch o.kind {
	case opLog:
		for j := 0; j < o.arg; j++ {
			r := logRow{[]string{"loss", "acc", "note"}[(l.at+j)%3], fmt.Sprintf("o%02d-%04d", l.at, j)}
			l.s.Log(r.name, r.value)
			l.pending = append(l.pending, r)
		}
	case opStage:
		name, contents := stagedFile(o.arg)
		l.s.StageFile(name, contents)
		l.workspace[name] = contents
	case opCommit:
		var files map[string]string
		if len(l.workspace) > 0 {
			files = maps.Clone(l.workspace)
		}
		x := newTxn(int64(len(l.model())+1), l.pending, files)
		l.mu.Lock()
		l.txns = append(l.txns, x)
		l.mu.Unlock()
		l.pending = nil
		l.beside(func() { l.must(l.s.Commit(""), "commit") })
		stamps := l.s.Database().EpochStamps()
		if n := len(stamps); n == 0 || stamps[n-1].Epoch != x.tstamp {
			l.fatalf("commit %d: newest stamp %v", x.tstamp, stamps)
		}
		x.wall = stamps[len(stamps)-1].Wall
	case opCompact:
		l.beside(func() {
			_, err := l.s.Compact()
			l.must(err, "compact")
		})
	case opReopen:
		l.must(l.s.Close(), "close")
		l.open(l.dir)
	case opCrash:
		dir := l.t.TempDir()
		copyTree(l.t, l.dir, dir)
		wal := filepath.Join(dir, ".flor", "flor.wal")
		st, err := os.Stat(wal)
		l.must(err, "stat the copied WAL")
		if st.Size() < l.durable {
			l.fatalf("the copied WAL holds %d bytes, fewer than the %d its last commit returned at", st.Size(), l.durable)
		}
		l.must(os.Truncate(wal, l.durable+int64(o.arg)%(st.Size()-l.durable+1)), "cut the WAL")
		l.s.Close() // the abandoned session writes only to the old directory
		l.open(dir)
	case opFollow:
		_, err := l.s.Compact()
		l.must(err, "compact")
		l.fdir = l.t.TempDir()
		l.startFollower()
		if snaps, _ := storage.ListSnapshots(l.f.Session().WALPath()); len(snaps) == 0 {
			l.fatalf("the follower did not bootstrap from a snapshot")
		}
	case opRestartFollower:
		l.stopFollower()
		l.startFollower()
	case opCatchUp:
		l.awaitFollower()
	case opPromote:
		l.awaitFollower()
		l.must(l.s.Close(), "the primary dies")
		f := l.f
		l.fstop()
		l.f = nil
		l.must(f.Promote(context.Background()), "promote")
		l.become(l.fdir, f.Session())
		// repl ships the WAL, not repo.json: the promoted store resolves
		// only the versions it commits itself.
		l.journalFrom = len(l.model())
	}
	if len(l.pending) == 0 {
		st, err := os.Stat(l.s.WALPath())
		l.must(err, "stat the active WAL")
		l.durable = st.Size()
	}
}

// beside runs op while two readers pin epochs of the primary and compare
// each with the model. Each reads once before op starts, so they pin both
// before and during it.
func (l *lifecycle) beside(op func()) {
	l.t.Helper()
	where, s := l.where(), l.s
	stop := make(chan struct{})
	var ready, done sync.WaitGroup
	for g := int64(0); g < 2; g++ {
		ready.Add(1)
		done.Add(1)
		rng := rand.New(rand.NewSource(l.seed<<16 + int64(l.at)<<1 + g))
		go func() {
			defer done.Done()
			for first := true; ; first = false {
				err := l.readOnce(s, rng)
				if first {
					ready.Done()
				}
				if err != nil {
					l.t.Errorf("%s\nreader beside the op: %v", where, err)
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	ready.Wait()
	func() {
		defer func() { close(stop); done.Wait() }() // also when op fails the test
		op()
	}()
	if l.t.Failed() {
		l.t.FailNow()
	}
}

// readOnce pins the committed epoch, or a random one below it, and compares
// its logs with the model's prefix.
func (l *lifecycle) readOnce(s *flor.Session, rng *rand.Rand) error {
	v, err := s.Reader()
	if err == nil && rng.Intn(2) == 0 {
		v, err = s.ReaderAt(rng.Int63n(v.Epoch() + 1))
	}
	if err != nil {
		return err
	}
	txns := l.model()
	if e := v.Epoch(); e > int64(len(txns)) {
		return fmt.Errorf("pinned epoch %d, past the %d transactions begun", e, len(txns))
	}
	res, err := v.SQL(digestQuery)
	if err != nil {
		return err
	}
	if got, want := renderDigest(res), wantDigest(txns[:v.Epoch()]); got != want {
		return fmt.Errorf("epoch %d: %s", v.Epoch(), firstDiff(got, want))
	}
	return nil
}

// check compares the primary, and a live follower at the epochs it has
// applied so far, with the model. The follower's repo.json is empty, so no
// version of it is checked.
func (l *lifecycle) check() {
	l.t.Helper()
	n := len(l.model())
	if got := l.s.Tstamp(); got != int64(n+1) {
		l.fatalf("primary at tstamp %d after %d commits", got, n)
	}
	l.checkStore("primary", l.s, n, l.journalFrom)
	if l.f != nil {
		l.checkStore("follower", l.f.Session(), int(l.f.Session().Database().Epoch()), n)
	}
}

// checkStore checks the epoch stamps of s and, at every epoch 0..top,
// ReaderAt, AS OF, AS OF TIMESTAMP at each commit's stamp, a tstamp-range
// count, and ts2vid with what the versions of commits after tstamp
// journalFrom check out to; at top it checks every logged row.
func (l *lifecycle) checkStore(store string, s *flor.Session, top, journalFrom int) {
	l.t.Helper()
	txns := l.model()
	stamps := s.Database().EpochStamps()
	if top > len(txns) || len(stamps) < top || len(stamps) > len(txns) {
		l.fatalf("%s: epoch %d with %d stamps, after %d commits", store, top, len(stamps), len(txns))
	}
	for i, st := range stamps {
		if st.Epoch != int64(i+1) || st.Wall != txns[i].wall {
			l.fatalf("%s: stamp %d is %+v, want epoch %d at %d", store, i, st, i+1, txns[i].wall)
		}
	}
	sql := func(v interface {
		SQL(string) (*sqlparse.Result, error)
	}, q string) *sqlparse.Result {
		l.t.Helper()
		res, err := v.SQL(q)
		l.must(err, store+": "+q)
		return res
	}
	checkouts := map[string]string{} // vid -> what FilesAt answered
	for e := 0; e <= top; e++ {
		want := wantDigest(txns[:e])
		v, err := s.ReaderAt(int64(e))
		l.must(err, fmt.Sprintf("%s: ReaderAt(%d)", store, e))
		if got := renderDigest(sql(v, digestQuery)); got != want {
			l.fatalf("%s: ReaderAt(%d): %s", store, e, firstDiff(got, want))
		}
		if got := renderDigest(sql(s, fmt.Sprintf("%s AS OF %d", digestQuery, e))); got != want {
			l.fatalf("%s: AS OF %d: %s", store, e, firstDiff(got, want))
		}
		if e > 0 {
			// Commit e's stamp resolves to the greatest epoch stamped at or
			// before it: e itself unless a later commit shares the stamp.
			at := e
			for at < top && txns[at].wall <= txns[e-1].wall {
				at++
			}
			ts := time.Unix(0, txns[e-1].wall).UTC().Format(time.RFC3339Nano)
			if got, want := renderDigest(sql(s, fmt.Sprintf("%s AS OF TIMESTAMP '%s'", digestQuery, ts))), wantDigest(txns[:at]); got != want {
				l.fatalf("%s: AS OF TIMESTAMP of commit %d (epoch %d): %s", store, e, at, firstDiff(got, want))
			}
		}
		lo := l.rng.Int63n(int64(top) + 2)
		hi := lo + l.rng.Int63n(int64(top)+2-lo)
		var count int64
		var versioned []string
		for _, x := range txns[:e] {
			if x.tstamp >= lo && x.tstamp <= hi {
				count += int64(len(x.rows))
			}
			if x.files != nil {
				versioned = append(versioned, fmt.Sprint(x.tstamp))
			}
		}
		if got := sql(s, fmt.Sprintf("SELECT count(*) FROM logs WHERE tstamp BETWEEN %d AND %d AS OF %d", lo, hi, e)).Rows[0][0].AsInt(); got != count {
			l.fatalf("%s: tstamp %d..%d AS OF %d counts %d rows, want %d", store, lo, hi, e, got, count)
		}
		ts2vid := sql(s, fmt.Sprintf("SELECT ts_start, vid FROM ts2vid ORDER BY ts_start AS OF %d", e)).Rows
		var got []string
		for _, r := range ts2vid {
			got = append(got, r[0].String())
		}
		if fmt.Sprint(got) != fmt.Sprint(versioned) {
			l.fatalf("%s: ts2vid AS OF %d holds tstamps %v, want %v", store, e, got, versioned)
		}
		for _, r := range ts2vid {
			x, vid := txns[r[0].AsInt()-1], r[1].AsText()
			if x.tstamp <= int64(journalFrom) {
				continue
			}
			if _, ok := checkouts[vid]; !ok {
				files, err := s.Repo().FilesAt(vid)
				l.must(err, fmt.Sprintf("%s: version %s of commit %d", store, vid, x.tstamp))
				checkouts[vid] = fmt.Sprint(files)
			}
			if checkouts[vid] != fmt.Sprint(x.files) {
				l.fatalf("%s: version %s of commit %d checks out %s, want %v", store, vid, x.tstamp, checkouts[vid], x.files)
			}
		}
	}
	v, err := s.ReaderAt(int64(top))
	l.must(err, fmt.Sprintf("%s: ReaderAt(%d)", store, top))
	var got, want []string
	for _, r := range sql(v, "SELECT tstamp, filename, value_name, value FROM logs").Rows {
		got = append(got, fmt.Sprintf("%d|%s|%s|%s", r[0].AsInt(), r[1].AsText(), r[2].AsText(), r[3].AsText()))
	}
	for _, x := range txns[:top] {
		for _, r := range x.rows {
			want = append(want, fmt.Sprintf("%d|train.go|%s|%s", x.tstamp, r.name, r.value))
		}
	}
	sort.Strings(got)
	sort.Strings(want)
	if g, w := strings.Join(got, "\n"), strings.Join(want, "\n"); g != w {
		l.fatalf("%s: rows at epoch %d: %s", store, top, firstDiff(g, w))
	}
}

// lifecycleSeeds is TestLifecycleModel's corpus.
var lifecycleSeeds = []int64{1, 2, 3, 4, 5, 6}

// TestLifecycleModel runs the schedules of lifecycleSeeds, which between
// them reach every op kind and a commit on a promoted follower.
func TestLifecycleModel(t *testing.T) {
	reached := map[string]bool{}
	for _, seed := range lifecycleSeeds {
		promoted := false
		for _, o := range lifecycleSchedule(seed, 40) {
			reached[opNames[o.kind]] = true
			promoted = promoted || o.kind == opPromote
			reached["commit after promote"] = reached["commit after promote"] || promoted && o.kind == opCommit
		}
	}
	for _, k := range append(opNames[:], "commit after promote") {
		if !reached[k] {
			t.Fatalf("no schedule of the corpus reaches %s", k)
		}
	}
	for _, seed := range lifecycleSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runLifecycle(t, seed)
		})
	}
}

// FuzzLifecycleModel runs the schedule of any seed.
func FuzzLifecycleModel(f *testing.F) {
	f.Add(int64(0))
	f.Fuzz(runLifecycle)
}

// featureSchedule is n ops of seed's schedule, those of kinds: one feature's
// share of the model. kinds holds no follower op, whose preconditions a cut
// schedule would break.
func featureSchedule(seed int64, n int, kinds ...opKind) []lifecycleOp {
	var ops []lifecycleOp
	for _, o := range lifecycleSchedule(seed, 8*n) {
		if len(ops) < n && slices.Contains(kinds, o.kind) {
			ops = append(ops, o)
		}
	}
	return ops
}

// The whole-system properties of single features run the model over their
// feature's ops, so each op of that kind lands in a longer history.

// TestAsOfPrefixEquivalenceRandomized: AS OF e, AS OF TIMESTAMP and ts2vid
// answer the first e transactions across commits, staging and compactions.
func TestAsOfPrefixEquivalenceRandomized(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runSchedule(t, seed, featureSchedule(seed, 40, opLog, opStage, opCommit, opCompact))
		})
	}
}

// TestSnapshotPlusTailEqualsFullReplayProperty: a store reopened, or crashed
// with its active WAL cut and reopened, from its snapshot plus tail answers
// every epoch as the committed transactions.
func TestSnapshotPlusTailEqualsFullReplayProperty(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			runSchedule(t, seed, featureSchedule(seed, 40, opLog, opStage, opCommit, opCompact, opReopen, opCrash))
		})
	}
}

// TestConcurrentSnapshotEquivalenceRandomized: readers pinning the committed
// epoch, or one below it, beside every commit and compaction see exactly a
// prefix of committed transactions.
func TestConcurrentSnapshotEquivalenceRandomized(t *testing.T) {
	runSchedule(t, 42, featureSchedule(42, 60, opLog, opCommit, opCompact))
}
