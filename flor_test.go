package flor

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"flordb/internal/build"
	"flordb/internal/relation"
	"flordb/internal/replay"
	"flordb/internal/script"
	"flordb/internal/sqlparse"
)

// counterModel is a trivially checkable Snapshotter.
type counterModel struct {
	N float64 `json:"n"`
}

func (m *counterModel) Snapshot() ([]byte, error) { return json.Marshal(m) }
func (m *counterModel) Restore(b []byte) error    { return json.Unmarshal(b, m) }

func memSession(t *testing.T, opts Options) *Session {
	t.Helper()
	s, err := OpenMemory("test-proj", opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNativeLogAndDataframe(t *testing.T) {
	s := memSession(t, Options{})
	s.SetFilename("train.go")
	for it := s.Loop("epoch", 3); it.Next(); {
		s.Log("acc", 0.8+0.01*float64(it.Index()))
		s.Log("recall", 0.7)
	}
	df, err := s.Dataframe("acc", "recall")
	if err != nil {
		t.Fatal(err)
	}
	if df.Len() != 3 {
		t.Fatalf("rows = %d\n%s", df.Len(), df)
	}
	if df.Index("epoch_value") < 0 {
		t.Fatalf("columns: %v", df.Columns)
	}
	best, err := df.ArgMax("acc")
	if err != nil {
		t.Fatal(err)
	}
	if best[df.Index("epoch_value")].AsText() != "2" {
		t.Fatalf("best epoch: %v", best)
	}
}

func TestNativeArgs(t *testing.T) {
	s := memSession(t, Options{Args: map[string]string{"lr": "0.5", "epochs": "7", "name": "x"}})
	if got := s.ArgFloat("lr", 0.001); got != 0.5 {
		t.Fatalf("lr = %v", got)
	}
	if got := s.ArgInt("epochs", 5); got != 7 {
		t.Fatalf("epochs = %v", got)
	}
	if got := s.ArgString("name", "d"); got != "x" {
		t.Fatalf("name = %v", got)
	}
	if got := s.ArgInt("missing", 9); got != 9 {
		t.Fatalf("default = %v", got)
	}
}

// TestArgAfterCloseRecordsNothing: the Arg calls and StageFile share Log's
// lifecycle bracket, so after Close they return the default — overrides
// included — and record nothing.
func TestArgAfterCloseRecordsNothing(t *testing.T) {
	s := memSession(t, Options{Args: map[string]string{"lr": "0.5"}})
	s.ArgInt("epochs", 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	args := s.Tables().Args.Len()
	if got := s.ArgInt("lr2", 7); got != 7 {
		t.Fatalf("ArgInt after close = %v, want 7", got)
	}
	if got := s.ArgFloat("lr", 0.1); got != 0.1 {
		t.Fatalf("ArgFloat after close = %v, want the default 0.1", got)
	}
	if got := s.ArgString("name", "d"); got != "d" {
		t.Fatalf("ArgString after close = %v, want d", got)
	}
	s.StageFile("w.flow", "x = 1\n")
	if n := s.Tables().Args.Len(); n != args {
		t.Fatalf("args rows %d -> %d after close", args, n)
	}
	if len(s.workspace) != 0 {
		t.Fatalf("StageFile after close staged %v", s.workspace)
	}
}

func TestLoopValsRecordsIterationValues(t *testing.T) {
	s := memSession(t, Options{})
	docs := []string{"a.pdf", "b.pdf"}
	for it := s.LoopVals("document", docs); it.Next(); {
		s.Log("doc_seen", docs[it.Index()])
	}
	df, err := s.Dataframe("doc_seen")
	if err != nil {
		t.Fatal(err)
	}
	vals, _ := df.Column("document_value")
	if len(vals) != 2 || vals[0].AsText() != "a.pdf" || vals[1].AsText() != "b.pdf" {
		t.Fatalf("document dims: %v", vals)
	}
}

func TestCommitAdvancesTstampAndVersions(t *testing.T) {
	s := memSession(t, Options{})
	ts0 := s.Tstamp()
	if err := s.RunScript("train.flow", "flor.log(\"x\", 1)\n"); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit("v1"); err != nil {
		t.Fatal(err)
	}
	if s.Tstamp() != ts0+1 {
		t.Fatalf("tstamp: %d -> %d", ts0, s.Tstamp())
	}
	if err := s.RunScript("train.flow", "flor.log(\"x\", 2)\n"); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit("v2"); err != nil {
		t.Fatal(err)
	}
	versions, err := s.Versions("train.flow")
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 2 {
		t.Fatalf("versions = %d", len(versions))
	}
	if versions[0].Tstamp != ts0 || versions[1].Tstamp != ts0+1 {
		t.Fatalf("version tstamps: %+v", versions)
	}
	// A commit without execution does NOT create a replayable version.
	s.StageFile("train.flow", "flor.log(\"x\", 3)\n")
	if err := s.Commit("v3-not-run"); err != nil {
		t.Fatal(err)
	}
	versions, _ = s.Versions("train.flow")
	if len(versions) != 2 {
		t.Fatalf("unexecuted commit became a version: %+v", versions)
	}
}

func TestSQLOverFigure1Schema(t *testing.T) {
	s := memSession(t, Options{})
	s.SetFilename("train.go")
	for it := s.Loop("epoch", 2); it.Next(); {
		s.Log("loss", 0.5)
	}
	res, err := s.SQL("SELECT count(*) AS n FROM logs WHERE value_name = 'loss'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsInt() != 2 {
		t.Fatalf("sql: %v", res.Rows)
	}
	res, err = s.SQL("SELECT loop_name, count(*) AS n FROM loops GROUP BY loop_name")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].AsInt() != 2 {
		t.Fatalf("loops sql: %v", res.Rows)
	}
}

func TestSQLGitVirtualTable(t *testing.T) {
	s := memSession(t, Options{})
	s.StageFile("a.flow", "x = 1\n")
	s.Commit("c1")
	s.StageFile("a.flow", "x = 2\n")
	s.Commit("c2")
	res, err := s.SQL("SELECT count(*) AS n FROM git WHERE filename = 'a.flow'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsInt() != 2 {
		t.Fatalf("git rows: %v", res.Rows)
	}
	res, err = s.SQL("SELECT count(*) AS n FROM git WHERE parent_vid IS NULL")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsInt() != 1 {
		t.Fatalf("root commits: %v", res.Rows)
	}
}

func TestRunScriptRecordsWithFilename(t *testing.T) {
	s := memSession(t, Options{})
	src := `
for d in flor.loop("document", docs()) {
    flor.log("seen", d)
}
`
	s.RegisterHost("docs", func([]script.Value, map[string]script.Value) (script.Value, error) {
		return script.NewList("x.pdf", "y.pdf"), nil
	})
	if err := s.RunScript("featurize.flow", src); err != nil {
		t.Fatal(err)
	}
	res, err := s.SQL("SELECT DISTINCT filename FROM logs")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsText() != "featurize.flow" {
		t.Fatalf("filenames: %v", res.Rows)
	}
	// The script source is staged for commit.
	if err := s.Commit("ran featurize"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Versions("featurize.flow"); err != nil {
		t.Fatal(err)
	}
}

func TestRunScriptParseError(t *testing.T) {
	s := memSession(t, Options{})
	if err := s.RunScript("bad.flow", "if {"); err == nil {
		t.Fatal("parse error must surface")
	}
}

const sessTrainSrc = `
epochs = flor.arg("epochs", 3)
net = make_model()
with flor.checkpointing(model=net) {
    for epoch in flor.loop("epoch", range(epochs)) {
        for step in flor.loop("step", range(2)) {
            bump(net)
        }
        flor.log("acc", peek(net))
    }
}
`

const sessTrainSrcWithNorm = `
epochs = flor.arg("epochs", 3)
net = make_model()
with flor.checkpointing(model=net) {
    for epoch in flor.loop("epoch", range(epochs)) {
        for step in flor.loop("step", range(2)) {
            bump(net)
        }
        norm = peek(net) * 10
        flor.log("norm", norm)
        flor.log("acc", peek(net))
    }
}
`

// sessTrainSrcWithNormAssigned logs norm as the value of an assignment.
const sessTrainSrcWithNormAssigned = `
epochs = flor.arg("epochs", 3)
net = make_model()
with flor.checkpointing(model=net) {
    for epoch in flor.loop("epoch", range(epochs)) {
        for step in flor.loop("step", range(2)) {
            bump(net)
        }
        norm = flor.log("norm", peek(net) * 10)
        flor.log("acc", peek(net))
    }
}
`

func registerCounterHosts(s *Session) {
	s.RegisterHost("make_model", func([]script.Value, map[string]script.Value) (script.Value, error) {
		return &counterModel{}, nil
	})
	s.RegisterHost("bump", func(args []script.Value, _ map[string]script.Value) (script.Value, error) {
		args[0].(*counterModel).N++
		return nil, nil
	})
	s.RegisterHost("peek", func(args []script.Value, _ map[string]script.Value) (script.Value, error) {
		return args[0].(*counterModel).N, nil
	})
}

// TestEndToEndHindsight backfills a norm log into two committed versions,
// written as a statement after a derivation, as an assignment's value, and
// nested in an assignment's expression.
func TestEndToEndHindsight(t *testing.T) {
	for _, tc := range []struct{ name, newSrc string }{
		{"statement", sessTrainSrcWithNorm},
		{"assignment", sessTrainSrcWithNormAssigned},
		{"nested in an assignment", strings.Replace(sessTrainSrcWithNormAssigned,
			`norm = flor.log("norm", peek(net) * 10)`, `y = flor.log("norm", peek(net) * 10) * 2`, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) { checkEndToEndHindsight(t, tc.newSrc) })
	}
}

func checkEndToEndHindsight(t *testing.T, newSrc string) {
	s := memSession(t, Options{Policy: replay.EveryN{N: 1}})
	registerCounterHosts(s)
	// Run and commit two versions.
	for v := 0; v < 2; v++ {
		if err := s.RunScript("train.flow", sessTrainSrc); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit("run"); err != nil {
			t.Fatal(err)
		}
	}
	// Hindsight: add the norm log.
	reports, err := s.Hindsight("train.flow", newSrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("reports = %d", len(reports))
	}
	for _, rep := range reports {
		if rep.Err != nil {
			t.Fatal(rep.Err)
		}
		if rep.Stats.LogsEmitted != 3 {
			t.Fatalf("logs emitted = %d", rep.Stats.LogsEmitted)
		}
		if rep.Mode != "coarse" {
			t.Fatalf("mode = %s", rep.Mode)
		}
	}
	// The dataframe now has norm for BOTH historical versions.
	df, err := s.Dataframe("acc", "norm")
	if err != nil {
		t.Fatal(err)
	}
	if df.Len() != 6 {
		t.Fatalf("rows = %d\n%s", df.Len(), df)
	}
	ni, ai := df.Index("norm"), df.Index("acc")
	for _, r := range df.Rows {
		if r[ni].IsNull() || r[ai].IsNull() {
			t.Fatalf("norm/acc missing in %v", r)
		}
		if diff := r[ni].AsFloat() - 10*r[ai].AsFloat(); diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("norm != 10*acc: %v", r)
		}
	}
}

func TestHindsightWithoutVersionsFails(t *testing.T) {
	s := memSession(t, Options{})
	if _, err := s.Hindsight("never.flow", "x = 1\n", nil); err == nil {
		t.Fatal("hindsight without versions must fail")
	}
}

func TestLoggedNamesAcrossVersions(t *testing.T) {
	s := memSession(t, Options{})
	s.Log("a", 1)
	s.StageFile("f", "x")
	s.Commit("")
	s.Log("b", 2)
	names := s.LoggedNamesAcrossVersions()
	if len(names) != 2 {
		t.Fatalf("versions: %v", names)
	}
	if names[1][0] != "a" || names[2][0] != "b" {
		t.Fatalf("names: %v", names)
	}
}

func TestCheckpointingNativeAPI(t *testing.T) {
	s := memSession(t, Options{Policy: replay.EveryN{N: 1}})
	m := &counterModel{}
	scope, err := s.Checkpointing(map[string]Snapshotter{"model": m})
	if err != nil {
		t.Fatal(err)
	}
	for it := s.Loop("epoch", 3); it.Next(); {
		m.N++
	}
	if err := scope.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := s.SQL("SELECT count(*) AS n FROM obj_store")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsInt() != 3 {
		t.Fatalf("checkpoints: %v", res.Rows)
	}
}

func TestRegisterBuildVirtualTable(t *testing.T) {
	s := memSession(t, Options{})
	mf, err := build.Parse("prep:\n\tcmd\ntrain: prep\n\tcmd\n")
	if err != nil {
		t.Fatal(err)
	}
	runner := build.NewRunner(mf, func(build.Rule) error { return nil }, 1)
	if err := s.RegisterBuild(mf, runner); err != nil {
		t.Fatal(err)
	}
	res, err := s.SQL("SELECT target FROM build_deps WHERE deps LIKE '%prep%'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsText() != "train" {
		t.Fatalf("build_deps: %v", res.Rows)
	}
}

// TestInvalidUTF8LiveEqualsRecovered: a string that is not valid UTF-8
// reads back the same from the session that logged it as after a reopen,
// which rebuilds it from a WAL line carrying U+FFFD per invalid byte.
func TestInvalidUTF8LiveEqualsRecovered(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "proj", Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.SetFilename("file\xfe.flow")
	it := s.LoopVals("loop\xff", []string{"it\xc3", "ok"})
	for it.Next() {
		s.Log("name\xff", "a\xffb")
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	s.ArgString("arg\xed\xa0\x80", "val\xe2\x80")
	if err := s.Commit(""); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"SELECT filename, value_name, value FROM logs ORDER BY ctx_id",
		"SELECT filename, loop_name, iteration_value FROM loops ORDER BY ctx_id",
		"SELECT filename, name, value FROM args",
	}
	answers := func(s *Session) []string {
		var out []string
		for _, q := range queries {
			res, err := s.SQL(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) == 0 {
				t.Fatalf("%s: no rows", q)
			}
			for _, row := range res.Rows {
				var cols []string
				for _, v := range row {
					cols = append(cols, v.AsText())
				}
				out = append(out, strings.Join(cols, "|"))
			}
		}
		return out
	}
	live := answers(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, "proj", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	recovered := answers(s2)
	if fmt.Sprintf("%q", live) != fmt.Sprintf("%q", recovered) {
		t.Fatalf("live answers differ from recovered ones:\n live %q\n recovered %q", live, recovered)
	}
	if want := "file\ufffd.flow|name\ufffd|a\ufffdb"; live[0] != want {
		t.Fatalf("logs row = %q, want %q", live[0], want)
	}
}

func TestDurableSessionRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "proj", Options{Policy: replay.EveryN{N: 1}})
	if err != nil {
		t.Fatal(err)
	}
	registerCounterHosts(s)
	if err := s.RunScript("train.flow", sessTrainSrc); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit("run 1"); err != nil {
		t.Fatal(err)
	}
	tsAfter := s.Tstamp()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: logs, loops, args, checkpoints, versions all recovered.
	s2, err := Open(dir, "proj", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Tstamp() != tsAfter {
		t.Fatalf("recovered tstamp = %d want %d", s2.Tstamp(), tsAfter)
	}
	df, err := s2.Dataframe("acc")
	if err != nil {
		t.Fatal(err)
	}
	if df.Len() != 3 {
		t.Fatalf("recovered rows = %d", df.Len())
	}
	versions, err := s2.Versions("train.flow")
	if err != nil || len(versions) != 1 {
		t.Fatalf("recovered versions: %v %v", versions, err)
	}
	res, err := s2.SQL("SELECT count(*) AS n FROM obj_store")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsInt() != 3 {
		t.Fatalf("recovered checkpoints: %v", res.Rows)
	}
	// Hindsight works across the restart, and its commit marker publishes
	// exactly one epoch.
	registerCounterHosts(s2)
	epochBefore := s2.Database().Epoch()
	reports, err := s2.Hindsight("train.flow", sessTrainSrcWithNorm, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reports[0].Err != nil || reports[0].Stats.LogsEmitted != 3 {
		t.Fatalf("post-recovery hindsight: %+v", reports[0])
	}
	epoch, stamps := s2.Database().Epoch(), fmt.Sprint(s2.Database().EpochStamps())
	if epoch != epochBefore+1 {
		t.Fatalf("hindsight marker moved the epoch %d -> %d, want +1", epochBefore, epoch)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// A third open rebuilds the same clock and the backfilled rows.
	s3, err := Open(dir, "proj", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got := s3.Database().Epoch(); got != epoch {
		t.Fatalf("reopened epoch %d, live was %d", got, epoch)
	}
	if got := fmt.Sprint(s3.Database().EpochStamps()); got != stamps {
		t.Fatalf("reopened stamps %s, live were %s", got, stamps)
	}
	res, err = s3.SQL("SELECT count(*) AS n FROM logs WHERE value_name = 'norm'")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].AsInt(); got != 3 {
		t.Fatalf("reopened project holds %d backfilled norm rows, want 3", got)
	}
}

// TestCommitSavesRepoOnlyWhenFilesWereStaged: a pure log+commit session never
// touches repo.json (the version store did not change), a staging commit
// appends to it without moving a byte already there, and reopening still finds
// every staged commit's ts2vid row and version.
func TestCommitSavesRepoOnlyWhenFilesWereStaged(t *testing.T) {
	dir := t.TempDir()
	repoPath := filepath.Join(dir, ".flor", "repo.json")
	logAndCommit := func(s *Session, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			s.Log("loss", float64(i))
			if err := s.Commit("unstaged"); err != nil {
				t.Fatal(err)
			}
		}
	}

	s, err := Open(dir, "proj", Options{})
	if err != nil {
		t.Fatal(err)
	}
	logAndCommit(s, 4)
	if _, err := os.Stat(repoPath); !os.IsNotExist(err) {
		t.Fatalf("repo.json after unstaged commits: stat err = %v, want not-exist", err)
	}
	s.SetFilename("train.go")
	var saved []byte
	for _, src := range []string{"v1", "v2", "v2"} {
		s.Log("loss", 0.5)
		s.StageFile("train.go", src)
		if err := s.Commit("staged " + src); err != nil {
			t.Fatal(err)
		}
		now, err := os.ReadFile(repoPath)
		if err != nil {
			t.Fatalf("repo.json after a staged commit: %v", err)
		}
		if len(now) <= len(saved) || !bytes.HasPrefix(now, saved) {
			t.Fatalf("staged commit %q took repo.json from %d to %d bytes; want the old bytes plus one record", src, len(saved), len(now))
		}
		saved = now
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh session has nothing staged: its commits leave the file alone.
	s, err = Open(dir, "proj", Options{})
	if err != nil {
		t.Fatal(err)
	}
	logAndCommit(s, 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if now, err := os.ReadFile(repoPath); err != nil || !bytes.Equal(now, saved) {
		t.Fatalf("repo.json touched by unstaged commits (err %v)", err)
	}

	s, err = Open(dir, "proj", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.SQL("SELECT count(*) AS n FROM ts2vid")
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].AsInt(); n != 3 {
		t.Fatalf("ts2vid rows after reopen = %d, want 3", n)
	}
	if versions, err := s.Versions("train.go"); err != nil || len(versions) != 3 {
		t.Fatalf("recovered versions: %v %v", versions, err)
	}
}

func TestFlorLogReturnValuePassthrough(t *testing.T) {
	s := memSession(t, Options{})
	if got := s.Log("x", 42); got.(int64) != 42 {
		t.Fatalf("passthrough: %v", got)
	}
	if got := s.Log("y", "text"); got.(string) != "text" {
		t.Fatalf("passthrough: %v", got)
	}
}

func TestDataframeAtFilters(t *testing.T) {
	s := memSession(t, Options{})
	s.SetFilename("a.go")
	s.Log("m", 1)
	s.SetFilename("b.go")
	s.Log("m", 2)
	df, err := s.DataframeAt("a.go", 0, "m")
	if err != nil {
		t.Fatal(err)
	}
	if df.Len() != 1 {
		t.Fatalf("rows = %d", df.Len())
	}
}

func TestSQLRejectsGarbage(t *testing.T) {
	s := memSession(t, Options{})
	if _, err := s.SQL("DELETE FROM logs"); err == nil {
		t.Fatal("non-SELECT must fail")
	}
	if _, err := s.SQL("SELECT * FROM nope"); err == nil {
		t.Fatal("unknown table must fail")
	}
}

func TestLoopEarlyValuesMatchPaperNesting(t *testing.T) {
	// Nested native loops: document > page, mirroring Figure 3.
	s := memSession(t, Options{})
	docs := []string{"d0", "d1"}
	for d := s.LoopVals("document", docs); d.Next(); {
		for p := s.Loop("page", 2); p.Next(); {
			s.Log("page_text", strings.Repeat("x", p.Index()+1))
		}
	}
	df, err := s.Dataframe("page_text")
	if err != nil {
		t.Fatal(err)
	}
	if df.Len() != 4 {
		t.Fatalf("rows = %d\n%s", df.Len(), df)
	}
	if df.Index("document_value") < 0 || df.Index("page_value") < 0 {
		t.Fatalf("columns: %v", df.Columns)
	}
}

func TestExplainShowsIndexBackedPlan(t *testing.T) {
	sess, err := OpenMemory("p", Options{})
	if err != nil {
		t.Fatal(err)
	}
	sess.SetFilename("train.go")
	for it := sess.Loop("epoch", 3); it.Next(); {
		sess.Log("acc", 0.9)
	}

	plan, err := sess.Explain("SELECT value FROM logs WHERE projid = 'p' AND value_name = 'acc'")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "IndexLookup logs via hash(projid, value_name)") {
		t.Fatalf("point query not index-backed:\n%s", plan)
	}

	// The EXPLAIN prefix through the plain SQL surface agrees.
	res, err := sess.SQL("EXPLAIN SELECT value FROM logs WHERE projid = 'p' AND value_name = 'acc'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 1 || res.Columns[0] != "plan" || len(res.Rows) == 0 {
		t.Fatalf("EXPLAIN result shape: cols=%v rows=%d", res.Columns, len(res.Rows))
	}
	joined := ""
	for _, r := range res.Rows {
		joined += r[0].String() + "\n"
	}
	if !strings.Contains(joined, "IndexLookup") {
		t.Fatalf("SQL EXPLAIN missing index lookup:\n%s", joined)
	}

	// And the plan executes to the same rows the naive path would produce.
	rows, err := sess.SQL("SELECT value FROM logs WHERE projid = 'p' AND value_name = 'acc'")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != 3 {
		t.Fatalf("planned query returned %d rows, want 3", len(rows.Rows))
	}
}

// TestRangeReadsOverBackfilledHistory: hindsight appends rows carrying old
// tstamps after newer ones, so the tail pages of logs get wide tstamp zones
// while the recorded pages stay narrow. Version slicing by tstamp ranges
// must stay exact over both: on one pin the planned, zone-pruned scan
// returns the reference executor's multiset and the closed-form count. The
// backfilled rows land in new pages, beside the page partials a GROUP BY
// stored before the backfill: its counts stay exact after it, on the run
// that builds the new pages' partials and on the one that reuses them.
func TestRangeReadsOverBackfilledHistory(t *testing.T) {
	const versions, epochs = 8, 300
	const src = `for epoch in flor.loop("epoch", range(300)) {
    flor.log("acc", epoch)
}
`
	const withHalf = `for epoch in flor.loop("epoch", range(300)) {
    flor.log("half", epoch / 2)
    flor.log("acc", epoch)
}
`
	// A durable session: its backfill commits, so a committed pin sees it.
	s, err := Open(t.TempDir(), "proj", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tstamps := make([]int64, versions)
	for v := range tstamps {
		tstamps[v] = s.Tstamp()
		if err := s.RunScript("train.flow", src); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit("run"); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.tables.Logs.Len(); n < 2*relation.ZonePageRows {
		t.Fatalf("logs holds %d rows before the backfill, want two complete zone pages", n)
	}
	const byName = "SELECT value_name, count(*) FROM logs GROUP BY value_name"
	checkByName := func(want ...string) {
		t.Helper()
		v, err := s.Reader()
		if err != nil {
			t.Fatal(err)
		}
		res, err := v.SQL(byName)
		if err != nil {
			t.Fatal(err)
		}
		if got := rowMultiset(res); !slices.Equal(got, want) {
			t.Errorf("%s: %v, want %v", byName, got, want)
		}
		if plan, err := v.Explain(byName); err != nil || !strings.Contains(plan, "[pages]") {
			t.Errorf("%s: plan does not merge page partials (err %v):\n%s", byName, err, plan)
		}
	}
	checkByName(fmt.Sprint([]any{"acc", versions * epochs}))
	reports, err := s.Hindsight("train.flow", withHalf, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reports {
		if rep.Err != nil {
			t.Fatal(rep.Err)
		}
	}

	for range 2 { // the first run builds the new pages' partials, the second reuses them
		checkByName(fmt.Sprint([]any{"acc", versions * epochs}), fmt.Sprint([]any{"half", versions * epochs}))
	}

	v, err := s.Reader()
	if err != nil {
		t.Fatal(err)
	}
	const perVersion = 2 * epochs // acc recorded, half backfilled
	for _, tc := range []struct {
		pred string
		want int
	}{
		{fmt.Sprintf("tstamp = %d", tstamps[3]), perVersion},
		{fmt.Sprintf("tstamp BETWEEN %d AND %d", tstamps[2], tstamps[5]), 4 * perVersion},
		{fmt.Sprintf("tstamp < %d", tstamps[3]), 3 * perVersion},
		{fmt.Sprintf("tstamp >= %d", tstamps[6]), 2 * perVersion},
	} {
		q := "SELECT tstamp, ctx_id, value_name, value FROM logs WHERE " + tc.pred
		planned, err := v.SQL(q)
		if err != nil {
			t.Fatal(err)
		}
		stmt, err := sqlparse.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := sqlparse.ExecuteScan(v.snap, stmt)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := rowMultiset(planned), rowMultiset(ref); !slices.Equal(got, want) {
			t.Errorf("%s: planned rows differ from the reference scan", tc.pred)
		}
		if len(planned.Rows) != tc.want {
			t.Errorf("%s: %d rows, want %d", tc.pred, len(planned.Rows), tc.want)
		}
		plan, err := v.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, "[zonemap]") {
			t.Errorf("%s: plan does not prune by zone:\n%s", tc.pred, plan)
		}
	}
}

// rowMultiset renders a result's rows as sorted strings, so two results
// compare as multisets whatever order their rows arrived in.
func rowMultiset(res *sqlparse.Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

// TestHindsightSharesRecorderCtxIDs: loop contexts a hindsight replay
// creates draw their ctx_ids from the session recorder's allocator, so a
// recording made after the backfill never reuses one. Pivot resolves a
// row's loop dimensions by ctx_id alone: a reused id gives the later row
// the earlier context's dimensions, or the other way round.
func TestHindsightSharesRecorderCtxIDs(t *testing.T) {
	const src = `
for e in flor.loop("epoch", range(2)) {
    flor.log("a", e)
}
`
	const withDoc = `
for e in flor.loop("epoch", range(2)) {
    flor.log("a", e)
    with flor.iteration("doc", nil, "x") {
        flor.log("b", e)
    }
}
`
	s := memSession(t, Options{})
	run := func() {
		t.Helper()
		if err := s.RunScript("t.flow", src); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit("run"); err != nil {
			t.Fatal(err)
		}
	}
	run()
	run()
	reports, err := s.Hindsight("t.flow", withDoc, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reports {
		if rep.Err != nil {
			t.Fatal(rep.Err)
		}
	}
	run()

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
	if len(owner) != 10 { // 3 runs x 2 epochs + 2 backfilled versions x 2 docs
		t.Fatalf("loops rows = %d, want 10", len(owner))
	}

	df, err := s.Dataframe("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(df.Columns, ","); got != "projid,tstamp,filename,epoch_value,doc_value,a,b" {
		t.Fatalf("columns: %s", got)
	}
	var got []string
	for _, r := range df.Rows {
		var cells []string
		for _, v := range r[1:] {
			cells = append(cells, v.String())
		}
		got = append(got, strings.Join(cells, " "))
	}
	sort.Strings(got)
	var want []string
	for ts := 1; ts <= 3; ts++ {
		for e := 0; e < 2; e++ {
			want = append(want, fmt.Sprintf("%d t.flow %d NULL %d NULL", ts, e, e))
			if ts < 3 {
				want = append(want, fmt.Sprintf("%d t.flow %d x NULL %d", ts, e, e))
			}
		}
	}
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("dataframe rows:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestSecondHindsightReusesUncommittedLoopContexts: a backfill that no
// commit marker has published — an in-memory session never writes one, a
// disk session skips it while a transaction is in flight — still lends its
// loop contexts to the next Hindsight. Otherwise the second backfill opens a
// second "doc" context per epoch, and pivot splits what belongs in one row.
func TestSecondHindsightReusesUncommittedLoopContexts(t *testing.T) {
	const src = `
for e in flor.loop("epoch", range(2)) {
    flor.log("a", e)
}
`
	const withB = `
for e in flor.loop("epoch", range(2)) {
    flor.log("a", e)
    with flor.iteration("doc", nil, "x") {
        flor.log("b", e)
    }
}
`
	const withC = `
for e in flor.loop("epoch", range(2)) {
    flor.log("a", e)
    with flor.iteration("doc", nil, "x") {
        flor.log("c", e)
    }
}
`
	for _, tc := range []struct {
		name string
		open func(t *testing.T) *Session
		// inFlight leaves a third run uncommitted across both backfills.
		inFlight bool
	}{
		{"memory", func(t *testing.T) *Session { return memSession(t, Options{}) }, false},
		{"uncommitted tail", func(t *testing.T) *Session {
			s, err := Open(t.TempDir(), "p", Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			return s
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.open(t)
			for i := 0; i < 2; i++ {
				if err := s.RunScript("t.flow", src); err != nil {
					t.Fatal(err)
				}
				if err := s.Commit("run"); err != nil {
					t.Fatal(err)
				}
			}
			if tc.inFlight {
				if err := s.RunScript("t.flow", src); err != nil {
					t.Fatal(err)
				}
			}
			for _, newSrc := range []string{withB, withC} {
				reports, err := s.Hindsight("t.flow", newSrc, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, rep := range reports {
					if rep.Err != nil {
						t.Fatal(rep.Err)
					}
				}
			}
			if tc.inFlight {
				if err := s.Commit("run"); err != nil {
					t.Fatal(err)
				}
			}

			res, err := s.SQL("SELECT tstamp, parent_ctx_id, loop_name, loop_iteration, iteration_value FROM loops")
			if err != nil {
				t.Fatal(err)
			}
			seen := map[string]bool{}
			for _, r := range res.Rows {
				key := fmt.Sprint(r)
				if seen[key] {
					t.Fatalf("loops row %s written twice", key)
				}
				seen[key] = true
			}

			df, err := s.Dataframe("b", "c")
			if err != nil {
				t.Fatal(err)
			}
			if got := strings.Join(df.Columns, ","); got != "projid,tstamp,filename,epoch_value,doc_value,b,c" {
				t.Fatalf("columns: %s", got)
			}
			var got []string
			for _, r := range df.Rows {
				var cells []string
				for _, v := range r[1:] {
					cells = append(cells, v.String())
				}
				got = append(got, strings.Join(cells, " "))
			}
			sort.Strings(got)
			var want []string
			for ts := 1; ts <= 2; ts++ {
				for e := 0; e < 2; e++ {
					want = append(want, fmt.Sprintf("%d t.flow %d x %d %d", ts, e, e, e))
				}
			}
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("dataframe rows:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		})
	}
}

// TestHindsightLeavesATransactionInFlightUncommitted: when a transaction is
// in flight as Hindsight starts, the backfill writes no commit marker, so it
// neither publishes nor makes durable the transaction's rows. Its own rows
// ride on the transaction's Commit.
func TestHindsightLeavesATransactionInFlightUncommitted(t *testing.T) {
	const src = `
for e in flor.loop("epoch", range(2)) {
    flor.log("a", e)
}
`
	const withB = `
for e in flor.loop("epoch", range(2)) {
    flor.log("a", e)
    flor.log("b", e)
}
`
	dir := t.TempDir()
	s, err := Open(dir, "p", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 3; i++ {
		if err := s.RunScript("t.flow", src); err != nil {
			t.Fatal(err)
		}
		if i < 2 {
			if err := s.Commit("run"); err != nil {
				t.Fatal(err)
			}
		}
	}
	counts := func(s *Session) string {
		t.Helper()
		v, err := s.Reader()
		if err != nil {
			t.Fatal(err)
		}
		res, err := v.SQL("SELECT value_name, count(*) AS n FROM logs GROUP BY value_name ORDER BY value_name")
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(res.Rows)
	}
	epoch := s.Database().Epoch()
	reports, err := s.Hindsight("t.flow", withB, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 || reports[0].Err != nil || reports[1].Err != nil {
		t.Fatalf("reports: %+v", reports)
	}
	if got := s.Database().Epoch(); got != epoch {
		t.Fatalf("hindsight beside a transaction in flight moved the epoch %d -> %d", epoch, got)
	}
	if got, want := counts(s), "[[a 4]]"; got != want {
		t.Fatalf("committed logs after hindsight: %s, want %s", got, want)
	}
	if err := s.Commit("run"); err != nil {
		t.Fatal(err)
	}
	const all = "[[a 6] [b 4]]"
	if got := counts(s); got != all {
		t.Fatalf("committed logs after the commit: %s, want %s", got, all)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, "p", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := counts(s2); got != all {
		t.Fatalf("recovered logs: %s, want %s", got, all)
	}
}

// TestLoopContextClosesOnEveryExit: a loop left by a runtime error in a
// flor.loop body, or by break out of a native loop and its Close, closes
// its last iteration's context, so the session's next records — a log, the
// next loop's iterations — land at the top level again.
func TestLoopContextClosesOnEveryExit(t *testing.T) {
	s, err := OpenMemory("leak", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	src := "xs = [1, 2]\nfor i in flor.loop(\"epoch\", range(3)) {\n    y = xs[5]\n}\n"
	if err := s.RunScript("fail.flow", src); err == nil {
		t.Fatal("a script indexing past its list ran without an error")
	}
	s.Log("after_script", 1)
	it := s.Loop("native", 3)
	for it.Next() {
		break
	}
	for i := 0; i < 2; i++ { // a second Close does nothing
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if it.Next() {
		t.Fatal("Next after Close began an iteration")
	}
	s.Log("after_break", 1)
	for it := s.Loop("next", 1); it.Next(); {
	}
	for q, want := range map[string]int64{
		"SELECT ctx_id FROM logs WHERE value_name = 'after_script'":  0,
		"SELECT ctx_id FROM logs WHERE value_name = 'after_break'":   0,
		"SELECT parent_ctx_id FROM loops WHERE loop_name = 'native'": 0,
		"SELECT parent_ctx_id FROM loops WHERE loop_name = 'next'":   0,
		"SELECT count(*) FROM loops WHERE loop_name = 'native'":      1,
	} {
		res, err := s.SQL(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != want {
			t.Fatalf("%s: %v, want %d", q, res.Rows, want)
		}
	}
}

// objStoreRows renders every obj_store row a session holds, in store order.
func objStoreRows(s *Session) []string {
	tbl, _ := s.Database().SnapshotLatest().Table("obj_store")
	var out []string
	tbl.Scan(func(_ relation.RowID, r relation.Row) bool {
		var b strings.Builder
		for _, v := range r {
			b.WriteString(v.String() + "|")
		}
		out = append(out, b.String())
		return true
	})
	return out
}

// bytesModel is a Snapshotter whose state is raw bytes.
type bytesModel struct{ b []byte }

func (m *bytesModel) Snapshot() ([]byte, error) { return m.b, nil }
func (m *bytesModel) Restore(b []byte) error    { m.b = b; return nil }

// TestCheckpointsRideInTheLog: a disk session's checkpoints are log records
// — one larger than the WAL's 64 KiB buffer, with NUL and 0xff bytes —
// so the session writes nothing under .flor/objects, and recovery after a
// restart and after a compaction rebuild the same obj_store rows from the
// log alone.
func TestCheckpointsRideInTheLog(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Policy: replay.EveryN{N: 1}, NoSync: true}
	s, err := Open(dir, "ckpt", opts)
	if err != nil {
		t.Fatal(err)
	}
	m := &bytesModel{}
	ck, err := s.Checkpointing(map[string]Snapshotter{"model": m})
	if err != nil {
		t.Fatal(err)
	}
	for it := s.Loop("epoch", 3); it.Next(); {
		m.b = bytes.Repeat([]byte{0, 0xff, byte(it.Index())}, 1+it.Index()*40000)
		s.Log("loss", it.Index())
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit("trained"); err != nil {
		t.Fatal(err)
	}
	want := objStoreRows(s)
	if len(want) != 3 {
		t.Fatalf("obj_store rows = %d, want 3", len(want))
	}
	reopen := func(compact bool) {
		t.Helper()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if s, err = Open(dir, "ckpt", opts); err != nil {
			t.Fatal(err)
		}
		if got := objStoreRows(s); !slices.Equal(got, want) {
			t.Fatalf("obj_store after reopen differs: %d rows, want %d", len(got), len(want))
		}
		if compact {
			if _, err := s.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	reopen(true)
	reopen(false)
	defer s.Close()
	if _, err := os.Stat(filepath.Join(dir, ".flor", "objects")); !os.IsNotExist(err) {
		t.Fatalf(".flor/objects exists (%v): checkpoints took a path beside the log", err)
	}
}

// TestLegacyCheckpointProjectOpens: testdata/legacy_ckpt_project was
// written by the release before checkpoints rode in the log; its two ckpt
// lines name their bytes by key in .flor/objects. Open rebuilds each row
// from that store, and with the store gone Open fails naming the first key,
// where that release opened with the rows silently gone.
func TestLegacyCheckpointProjectOpens(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "legacy_ckpt_project"))); err != nil {
		t.Fatal(err)
	}
	objects := filepath.Join(dir, ".flor", "objects")
	s, err := Open(dir, "legacy", Options{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.LatestReader()
	if err != nil {
		t.Fatal(err)
	}
	for i, key := range []string{
		"6b9e948ddf835670dd009006a0f4372acdf60615038726f2f978cc71bab1207e",
		"10145e4fae9248c3e162538216e1aa3385de2854d509e999200180756e3b5c1d",
	} {
		want, err := os.ReadFile(filepath.Join(objects, key[:2], key[2:]))
		if err != nil {
			t.Fatal(err)
		}
		got, ok := v.view.GetBlobExact("legacy", replay.CkptBlobName("epoch", i), 1)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("checkpoint %d: row %q (found %v), want the bytes of blob %s", i, got, ok, key)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(objects); err != nil {
		t.Fatal(err)
	}
	if s, err := Open(dir, "legacy", Options{}); err == nil || !strings.Contains(err.Error(), "6b9e948ddf835670") {
		if s != nil {
			s.Close()
		}
		t.Fatalf("Open without the blobs its log names: %v, want an error naming the key", err)
	}
}
