package build

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// diamond is the C7 benchmark shape: src1 -> a -> {b, c} -> d(+src2) -> e.
const diamond = `
a: src1
	cmd
b: a
	cmd
c: a
	cmd
d: b c src2
	cmd
e: d
	cmd
`

func mustParse(t *testing.T, text string) *Makefile {
	t.Helper()
	mf, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	return mf
}

func TestParseRules(t *testing.T) {
	mf := mustParse(t, "# pipeline\nfeaturize: corpus featurize.flow\n\tflow featurize.flow\n\ntrain: featurize\n\tflow train.flow\n\techo done\n")
	if len(mf.Rules) != 2 {
		t.Fatalf("rules = %d", len(mf.Rules))
	}
	train, ok := mf.Rule("train")
	if !ok || !reflect.DeepEqual(train.Deps, []string{"featurize"}) {
		t.Fatalf("train = %+v", train)
	}
	if !reflect.DeepEqual(train.Cmds, []string{"flow train.flow", "echo done"}) {
		t.Fatalf("cmds = %v", train.Cmds)
	}
	for name, want := range map[string]bool{"corpus": true, "featurize.flow": true, "train": true, "flow": false} {
		if mf.Known(name) != want {
			t.Fatalf("Known(%q) = %v", name, !want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, text, want string
	}{
		{"space indent", "a: b\n  cmd\n", "tab"},
		{"space header", "  a: b\n\tcmd\n", "column 1"},
		{"recipe first", "\tcmd\n", "before first target"},
		{"duplicate", "a:\n\tcmd\na:\n\tcmd\n", "duplicate target"},
		{"no colon", "a\n\tcmd\n", "target: deps"},
		{"empty target", ": b\n\tcmd\n", "empty target"},
		{"multi target", "a b: c\n\tcmd\n", "one target"},
		{"double colon", "a:: b\n\tcmd\n", "unexpected ':'"},
		{"colon in deps", "a: b: c\n\tcmd\n", "unexpected ':'"},
		{"self cycle", "a: a\n\tcmd\n", "cycle"},
		{"long cycle", "a: b\n\tcmd\nb: c\n\tcmd\nc: a\n\tcmd\n", "cycle"},
	}
	for _, c := range cases {
		_, err := Parse(c.text)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
}

func TestCycleErrorNamesThePath(t *testing.T) {
	_, err := Parse("a: b\n\tcmd\nb: a\n\tcmd\n")
	if err == nil || !strings.Contains(err.Error(), "a -> b -> a") {
		t.Fatalf("err = %v", err)
	}
}

func TestParseBlankTabLine(t *testing.T) {
	// A whitespace-only line (even one starting with a tab) is blank, not a
	// recipe — including before the first rule.
	mf := mustParse(t, "\t\na: b\n\tcmd\n   \n")
	if len(mf.Rules) != 1 || len(mf.Rules[0].Cmds) != 1 {
		t.Fatalf("rules = %+v", mf.Rules)
	}
}

func TestRunUnknownGoal(t *testing.T) {
	mf := mustParse(t, diamond)
	r := NewRunner(mf, func(Rule) error { return nil }, 1)
	if err := r.Run("nope"); err == nil || !strings.Contains(err.Error(), "no rule") {
		t.Fatalf("err = %v", err)
	}
	// A rejected goal must not wipe the record of the last successful run.
	if err := r.Run("e"); err != nil {
		t.Fatal(err)
	}
	if err := r.Run("nope"); err == nil {
		t.Fatal("unknown goal accepted")
	}
	if len(r.Ran) != 5 {
		t.Fatalf("Ran wiped by failed Run: %v", r.Ran)
	}
	// A source goal is a no-op and likewise preserves the record.
	if err := r.Run("src1"); err != nil {
		t.Fatal(err)
	}
	if len(r.Ran) != 5 {
		t.Fatalf("Ran wiped by source-goal Run: %v", r.Ran)
	}
}

func TestTouchUnknownName(t *testing.T) {
	mf := mustParse(t, diamond)
	r := NewRunner(mf, func(Rule) error { return nil }, 1)
	if err := r.Touch("ghost"); err == nil || !strings.Contains(err.Error(), "unknown name") {
		t.Fatalf("err = %v", err)
	}
}

func TestSecondRunAllCached(t *testing.T) {
	mf := mustParse(t, diamond)
	r := NewRunner(mf, func(Rule) error { return nil }, 1)
	if err := r.Run("e"); err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "b", "c", "d", "e"}; !reflect.DeepEqual(r.Ran, want) {
		t.Fatalf("first run Ran = %v, want %v", r.Ran, want)
	}
	if len(r.Cached) != 0 {
		t.Fatalf("first run Cached = %v", r.Cached)
	}
	if err := r.Run("e"); err != nil {
		t.Fatal(err)
	}
	if len(r.Ran) != 0 {
		t.Fatalf("second run Ran = %v, want none", r.Ran)
	}
	if want := []string{"a", "b", "c", "d", "e"}; !reflect.DeepEqual(r.Cached, want) {
		t.Fatalf("second run Cached = %v, want %v", r.Cached, want)
	}
}

func TestDirtyLeafVsDirtyRoot(t *testing.T) {
	mf := mustParse(t, diamond)
	r := NewRunner(mf, func(Rule) error { return nil }, 1)
	if err := r.Run("e"); err != nil {
		t.Fatal(err)
	}

	// src2 feeds only d: exactly the d -> e subtree rebuilds.
	if err := r.Touch("src2"); err != nil {
		t.Fatal(err)
	}
	if err := r.Run("e"); err != nil {
		t.Fatal(err)
	}
	if want := []string{"d", "e"}; !reflect.DeepEqual(r.Ran, want) {
		t.Fatalf("dirty-leaf Ran = %v, want %v", r.Ran, want)
	}
	if want := []string{"a", "b", "c"}; !reflect.DeepEqual(r.Cached, want) {
		t.Fatalf("dirty-leaf Cached = %v, want %v", r.Cached, want)
	}

	// src1 feeds the root: everything rebuilds.
	if err := r.Touch("src1"); err != nil {
		t.Fatal(err)
	}
	if err := r.Run("e"); err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "b", "c", "d", "e"}; !reflect.DeepEqual(r.Ran, want) {
		t.Fatalf("dirty-root Ran = %v, want %v", r.Ran, want)
	}
	if len(r.Cached) != 0 {
		t.Fatalf("dirty-root Cached = %v", r.Cached)
	}
}

func TestRunPartialGoal(t *testing.T) {
	mf := mustParse(t, diamond)
	r := NewRunner(mf, func(Rule) error { return nil }, 1)
	if err := r.Run("b"); err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "b"}; !reflect.DeepEqual(r.Ran, want) {
		t.Fatalf("Ran = %v, want %v", r.Ran, want)
	}
	// c, d, e were not needed and stay dirty for the next full build.
	if err := r.Run("e"); err != nil {
		t.Fatal(err)
	}
	sort.Strings(r.Ran)
	if want := []string{"c", "d", "e"}; !reflect.DeepEqual(r.Ran, want) {
		t.Fatalf("Ran = %v, want %v", r.Ran, want)
	}
}

// TestParallelRunsEachTargetOnce drives a wide DAG with 4 workers under the
// race detector: every target must execute exactly once, and a target must
// never start before all of its dependencies finished.
func TestParallelRunsEachTargetOnce(t *testing.T) {
	var b strings.Builder
	b.WriteString("all:")
	for i := 0; i < 16; i++ {
		fmt.Fprintf(&b, " mid%d", i)
	}
	b.WriteString("\n\tcmd\n")
	for i := 0; i < 16; i++ {
		fmt.Fprintf(&b, "mid%d: base\n\tcmd\n", i)
	}
	b.WriteString("base: src\n\tcmd\n")
	mf := mustParse(t, b.String())

	var mu sync.Mutex
	counts := make(map[string]int)
	finished := make(map[string]bool)
	r := NewRunner(mf, nil, 4)
	r.exec = func(rule Rule) error {
		mu.Lock()
		defer mu.Unlock()
		counts[rule.Target]++
		for _, d := range rule.Deps {
			if _, isTarget := mf.Rule(d); isTarget && !finished[d] {
				return fmt.Errorf("%s started before dep %s finished", rule.Target, d)
			}
		}
		finished[rule.Target] = true
		return nil
	}
	if err := r.Run("all"); err != nil {
		t.Fatal(err)
	}
	if len(counts) != 18 {
		t.Fatalf("executed %d targets, want 18", len(counts))
	}
	for tgt, n := range counts {
		if n != 1 {
			t.Fatalf("%s executed %d times", tgt, n)
		}
	}
	if got := len(r.Ran); got != 18 {
		t.Fatalf("Ran = %d entries, want 18", got)
	}
}

// TestTouchDuringExecNotLost: a Touch landing while the target is executing
// means the exec saw stale inputs, so the target must stay dirty and re-run.
func TestTouchDuringExecNotLost(t *testing.T) {
	mf := mustParse(t, "a: src1\n\tcmd\n")
	r := NewRunner(mf, nil, 1)
	touched := false
	r.exec = func(rule Rule) error {
		if !touched {
			touched = true
			return r.Touch("src1") // src1 changes mid-build
		}
		return nil
	}
	if err := r.Run("a"); err != nil {
		t.Fatal(err)
	}
	if r.IsCached("a") {
		t.Fatal("mid-exec Touch was lost: a marked clean")
	}
	if err := r.Run("a"); err != nil {
		t.Fatal(err)
	}
	if want := []string{"a"}; !reflect.DeepEqual(r.Ran, want) {
		t.Fatalf("second run Ran = %v, want %v", r.Ran, want)
	}
	if !r.IsCached("a") {
		t.Fatal("a not clean after rebuild")
	}
}

// TestTouchDuringExecKeepsDependentsDirty: when a Touch lands mid-build, the
// targets that execute afterwards against a still-dirty dependency must not
// be marked clean, or they would be skipped (stale) on the next Run.
func TestTouchDuringExecKeepsDependentsDirty(t *testing.T) {
	mf := mustParse(t, "d: src1\n\tcmd\ne: d\n\tcmd\n")
	r := NewRunner(mf, nil, 1)
	touched := false
	r.exec = func(rule Rule) error {
		if rule.Target == "d" && !touched {
			touched = true
			return r.Touch("src1") // src1 changes while d builds
		}
		return nil
	}
	if err := r.Run("e"); err != nil {
		t.Fatal(err)
	}
	if r.IsCached("d") || r.IsCached("e") {
		t.Fatalf("stale targets marked clean: d cached=%v e cached=%v",
			r.IsCached("d"), r.IsCached("e"))
	}
	if err := r.Run("e"); err != nil {
		t.Fatal(err)
	}
	if want := []string{"d", "e"}; !reflect.DeepEqual(r.Ran, want) {
		t.Fatalf("second run Ran = %v, want %v", r.Ran, want)
	}
	if err := r.Run("e"); err != nil {
		t.Fatal(err)
	}
	if len(r.Ran) != 0 {
		t.Fatalf("third run Ran = %v, want none", r.Ran)
	}
}

func TestExecErrorAbortsAndStaysDirty(t *testing.T) {
	mf := mustParse(t, diamond)
	boom := errors.New("boom")
	var calls atomic.Int32
	r := NewRunner(mf, func(rule Rule) error {
		calls.Add(1)
		if rule.Target == "d" {
			return boom
		}
		return nil
	}, 2)
	err := r.Run("e")
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "d:") {
		t.Fatalf("err = %v", err)
	}
	if r.IsCached("d") || r.IsCached("e") {
		t.Fatal("failed target or its dependent marked cached")
	}
	// Retry with a fixed exec: only the unbuilt suffix runs.
	r.exec = func(Rule) error { return nil }
	if err := r.Run("e"); err != nil {
		t.Fatal(err)
	}
	if want := []string{"d", "e"}; !reflect.DeepEqual(r.Ran, want) {
		t.Fatalf("retry Ran = %v, want %v", r.Ran, want)
	}
}

func TestDepsVirtualTable(t *testing.T) {
	mf := mustParse(t, diamond)
	r := NewRunner(mf, func(Rule) error { return nil }, 1)
	vt := DepsVirtualTable(mf, r, "")
	if vt.Name() != "build_deps" {
		t.Fatalf("name = %q", vt.Name())
	}
	if got := DepsVirtualTable(mf, r, "ml_").Name(); got != "ml_build_deps" {
		t.Fatalf("prefixed name = %q", got)
	}
	rows := vt.Rows()
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	iTarget := vt.Schema().Index("target")
	iDeps := vt.Schema().Index("deps")
	iCached := vt.Schema().Index("cached")
	byTarget := make(map[string]string)
	for _, row := range rows {
		byTarget[row[iTarget].AsText()] = row[iDeps].AsText()
		if row[iCached].AsBool() {
			t.Fatalf("%s cached before any build", row[iTarget].AsText())
		}
	}
	if byTarget["d"] != "b,c,src2" {
		t.Fatalf("d deps = %q", byTarget["d"])
	}
	if err := r.Run("e"); err != nil {
		t.Fatal(err)
	}
	for _, row := range vt.Rows() {
		if !row[iCached].AsBool() {
			t.Fatalf("%s not cached after full build", row[iTarget].AsText())
		}
	}
}

func TestDataflow(t *testing.T) {
	mf := mustParse(t, diamond)
	out := Dataflow(mf)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("dataflow lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "a") || !strings.Contains(lines[0], "src1") {
		t.Fatalf("first line = %q", lines[0])
	}
	if !strings.Contains(out, "d <- b, c, src2") {
		t.Fatalf("dataflow:\n%s", out)
	}
}
