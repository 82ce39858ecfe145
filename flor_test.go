package flor

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flordb/internal/build"
	"flordb/internal/replay"
	"flordb/internal/script"
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

func TestEndToEndHindsight(t *testing.T) {
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
	reports, err := s.Hindsight("train.flow", sessTrainSrcWithNorm, nil)
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
	// Hindsight works across the restart.
	registerCounterHosts(s2)
	reports, err := s2.Hindsight("train.flow", sessTrainSrcWithNorm, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reports[0].Err != nil || reports[0].Stats.LogsEmitted != 3 {
		t.Fatalf("post-recovery hindsight: %+v", reports[0])
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
