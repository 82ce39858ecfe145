package script

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// propagateCase is one old/new pair of the propagation corpus.
type propagateCase struct{ name, old, new string }

// readPropagateGolden reads testdata/propagate.golden: per case a
// "=== name" line, the two inputs under "--- old" and "--- new", and under
// "--- merged (injected N, matched M)" the printed merged file. It returns
// the cases and the file's text.
func readPropagateGolden(tb testing.TB) ([]propagateCase, string) {
	tb.Helper()
	b, err := os.ReadFile("testdata/propagate.golden")
	if err != nil {
		tb.Fatal(err)
	}
	var cases []propagateCase
	var section *string // the input the current line belongs to
	for _, line := range strings.SplitAfter(string(b), "\n") {
		switch {
		case strings.HasPrefix(line, "=== "):
			cases = append(cases, propagateCase{name: strings.TrimSuffix(line[len("=== "):], "\n")})
			section = nil
		case line == "--- old\n":
			section = &cases[len(cases)-1].old
		case line == "--- new\n":
			section = &cases[len(cases)-1].new
		case strings.HasPrefix(line, "--- merged"):
			section = nil
		case section != nil:
			*section += line
		}
	}
	return cases, string(b)
}

// renderPropagateGolden propagates every case and renders the corpus in
// readPropagateGolden's format.
func renderPropagateGolden(t *testing.T, cases []propagateCase) string {
	var sb strings.Builder
	for _, c := range cases {
		merged, res := Propagate(mustParse(t, c.old), mustParse(t, c.new))
		fmt.Fprintf(&sb, "=== %s\n--- old\n%s--- new\n%s--- merged (injected %d, matched %d)\n%s",
			c.name, c.old, c.new, res.Injected, res.Matched, Print(merged))
	}
	return sb.String()
}

// TestPropagateGolden pins what propagation makes of every old/new pair
// the tests use — the TestPropagate* cases, hostlib.TrainSrc →
// TrainSrcWithNorm, the replay plan-analysis pairs, and the root
// TestEndToEndHindsight's norm log as an assignment's value and nested in
// one — against testdata/propagate.golden: the printed merged file, the
// injected count and the matched count, byte for byte.
func TestPropagateGolden(t *testing.T) {
	cases, want := readPropagateGolden(t)
	if len(cases) == 0 {
		t.Fatal("no cases in testdata/propagate.golden")
	}
	if got := renderPropagateGolden(t, cases); got != want {
		gotCases := strings.SplitAfter(got, "=== ")
		for i, w := range strings.SplitAfter(want, "=== ") {
			if i < len(gotCases) && gotCases[i] != w {
				t.Fatalf("case %d differs:\n got: %s\nwant: %s", i, gotCases[i], w)
			}
		}
		t.Fatal("testdata/propagate.golden differs from the propagation of its inputs")
	}
}

// FuzzPropagate propagates pairs of parseable scripts, seeded from the
// corpus. Propagation must not panic and must change neither input;
// dropping the statements it injected from the merged file must print the
// old file; and a file propagated into itself must gain nothing.
func FuzzPropagate(f *testing.F) {
	cases, _ := readPropagateGolden(f)
	for _, c := range cases {
		f.Add(c.old, c.new)
	}
	f.Fuzz(func(t *testing.T, oldSrc, newSrc string) {
		oldF, err := Parse("old.flow", oldSrc)
		if err != nil {
			return
		}
		newF, err := Parse("new.flow", newSrc)
		if err != nil {
			return
		}
		oldText, newText := Print(oldF), Print(newF)
		merged, res := Propagate(oldF, newF)
		if Print(oldF) != oldText || Print(newF) != newText {
			t.Fatal("propagation changed an input")
		}
		if got := Print(&File{Stmts: dropInjected(merged.Stmts, res)}); got != oldText {
			t.Fatalf("merged without its injected statements:\n%s\nold:\n%s", got, oldText)
		}
		self, selfRes := Propagate(oldF, oldF)
		if selfRes.Injected != 0 || Print(self) != oldText {
			t.Fatalf("a file propagated into itself gained %d statements:\n%s", selfRes.Injected, Print(self))
		}
	})
}

// dropInjected returns stmts less the statements res reports injected.
func dropInjected(stmts []Stmt, res PropagateResult) []Stmt {
	var out []Stmt
	for _, s := range stmts {
		if res.IsInjected(s) {
			continue
		}
		if bodies := Body(s); bodies != nil {
			for i, b := range bodies {
				bodies[i] = dropInjected(b, res)
			}
			s = withBodies(s, bodies)
		}
		out = append(out, s)
	}
	return out
}
