package script

import (
	"errors"
	"strings"
	"testing"
)

// countLogs counts the flor.log statements of a file.
func countLogs(f *File) int {
	n := 0
	Inspect(f.Stmts, func(s Stmt) bool {
		if es, ok := s.(*ExprStmt); ok {
			if call, isCall := es.X.(*CallExpr); isCall && call.Fn == "flor.log" {
				n++
			}
		}
		return false
	})
	return n
}

func TestPropagateInjectsNewLog(t *testing.T) {
	oldSrc := `
for epoch in flor.loop("epoch", range(3)) {
    loss = step(net)
    acc = eval(net)
    flor.log("acc", acc)
}
`
	newSrc := `
for epoch in flor.loop("epoch", range(3)) {
    loss = step(net)
    flor.log("loss", loss)
    acc = eval(net)
    flor.log("acc", acc)
}
`
	oldF := mustParse(t, oldSrc)
	newF := mustParse(t, newSrc)
	merged, res := Propagate(oldF, newF)
	if res.Injected != 1 {
		t.Fatalf("injected = %d", res.Injected)
	}
	printed := Print(merged)
	// The new log must land right after `loss = step(net)`.
	lossIdx := strings.Index(printed, "loss = step(net)")
	logIdx := strings.Index(printed, `flor.log("loss", loss)`)
	accIdx := strings.Index(printed, "acc = eval(net)")
	if lossIdx < 0 || logIdx < 0 || accIdx < 0 || !(lossIdx < logIdx && logIdx < accIdx) {
		t.Fatalf("placement wrong:\n%s", printed)
	}
	// The merged file must parse and count one more log than the old.
	if countLogs(merged) != countLogs(oldF)+1 {
		t.Fatalf("log count: %d vs %d", countLogs(merged), countLogs(oldF))
	}
}

func TestPropagateCarriesDerivationAssignments(t *testing.T) {
	oldSrc := `
for e in flor.loop("epoch", range(2)) {
    loss = step(net)
}
`
	newSrc := `
for e in flor.loop("epoch", range(2)) {
    loss = step(net)
    ratio = loss * 100
    flor.log("ratio", ratio)
}
`
	merged, res := Propagate(mustParse(t, oldSrc), mustParse(t, newSrc))
	if res.Injected != 2 {
		t.Fatalf("injected = %d (want assignment + log)", res.Injected)
	}
	printed := Print(merged)
	if !strings.Contains(printed, "ratio = (loss * 100)") || !strings.Contains(printed, `flor.log("ratio", ratio)`) {
		t.Fatalf("derivation missing:\n%s", printed)
	}
}

func TestPropagateDoesNotInjectComputation(t *testing.T) {
	oldSrc := "x = 1\n"
	newSrc := "x = 1\nlaunch_missiles()\ny = train(x)\n"
	_, res := Propagate(mustParse(t, oldSrc), mustParse(t, newSrc))
	// launch_missiles() is a non-log expression statement: never injected.
	// y = train(x) is an assignment (pure derivation) so it IS carried.
	merged, _ := Propagate(mustParse(t, oldSrc), mustParse(t, newSrc))
	printed := Print(merged)
	if strings.Contains(printed, "launch_missiles") {
		t.Fatalf("computation injected:\n%s", printed)
	}
	if res.Injected != 1 {
		t.Fatalf("injected = %d", res.Injected)
	}
}

func TestPropagateSurvivesRefactor(t *testing.T) {
	// Old version has different surrounding code; the anchor (the matched
	// statement before the log) still places the statement correctly.
	oldSrc := `
setup()
for e in flor.loop("epoch", range(5)) {
    loss = step(net)
    extra_old_work()
}
teardown()
`
	newSrc := `
prepare_differently()
for e in flor.loop("epoch", range(5)) {
    loss = step(net)
    flor.log("loss", loss)
}
`
	merged, res := Propagate(mustParse(t, oldSrc), mustParse(t, newSrc))
	if res.Injected != 1 {
		t.Fatalf("injected = %d", res.Injected)
	}
	printed := Print(merged)
	lossIdx := strings.Index(printed, "loss = step(net)")
	logIdx := strings.Index(printed, `flor.log("loss", loss)`)
	extraIdx := strings.Index(printed, "extra_old_work()")
	if !(lossIdx < logIdx && logIdx < extraIdx) {
		t.Fatalf("anchored placement wrong:\n%s", printed)
	}
	// Old-only statements survive.
	if !strings.Contains(printed, "setup()") || !strings.Contains(printed, "teardown()") {
		t.Fatalf("old statements lost:\n%s", printed)
	}
}

// TestPropagateAlignsLoopByName changes a flor.loop's bound between the
// versions: the loop is the same loop, so the new log lands inside the old
// 3-epoch loop instead of the whole 5-epoch loop being injected beside it.
func TestPropagateAlignsLoopByName(t *testing.T) {
	oldSrc := `
for e in flor.loop("epoch", range(3)) {
    loss = step(net)
}
`
	newSrc := `
for e in flor.loop("epoch", range(5)) {
    loss = step(net)
    flor.log("loss", loss)
}
`
	merged, res := Propagate(mustParse(t, oldSrc), mustParse(t, newSrc))
	if res.Injected != 1 || res.Matched != 2 {
		t.Fatalf("injected = %d, matched = %d; want 1, 2", res.Injected, res.Matched)
	}
	want := Print(mustParse(t, `
for e in flor.loop("epoch", range(3)) {
    loss = step(net)
    flor.log("loss", loss)
}
`))
	if got := Print(merged); got != want {
		t.Fatalf("merged:\n%s\nwant:\n%s", got, want)
	}
}

// TestPropagateLoopWithComputedNameKeepsHeader: a loop whose name is not a
// string literal has no identity to align by, so only its rendered header
// matches.
func TestPropagateLoopWithComputedNameKeepsHeader(t *testing.T) {
	oldSrc := "for e in flor.loop(name, range(3)) {\n    loss = step(net)\n}\n"
	newSrc := "for e in flor.loop(name, range(5)) {\n    loss = step(net)\n    flor.log(\"loss\", loss)\n}\n"
	_, res := Propagate(mustParse(t, oldSrc), mustParse(t, newSrc))
	if res.Matched != 0 {
		t.Fatalf("matched = %d; a computed loop name must not align across bounds", res.Matched)
	}
}

func TestPropagateIntoNestedLoops(t *testing.T) {
	oldSrc := `
for d in flor.loop("document", docs) {
    for p in flor.loop("page", pages(d)) {
        text = read_page(d, p)
    }
}
`
	newSrc := `
for d in flor.loop("document", docs) {
    for p in flor.loop("page", pages(d)) {
        text = read_page(d, p)
        flor.log("page_text", text)
    }
    flor.log("doc_done", d)
}
`
	merged, res := Propagate(mustParse(t, oldSrc), mustParse(t, newSrc))
	if res.Injected != 2 {
		t.Fatalf("injected = %d", res.Injected)
	}
	printed := Print(merged)
	inner := strings.Index(printed, `flor.log("page_text", text)`)
	outer := strings.Index(printed, `flor.log("doc_done", d)`)
	if inner < 0 || outer < 0 || inner > outer {
		t.Fatalf("nesting wrong:\n%s", printed)
	}
}

func TestPropagateNewLogAtTopOfBlock(t *testing.T) {
	oldSrc := "a = 1\nb = 2\n"
	newSrc := "flor.log(\"start\", 1)\na = 1\nb = 2\n"
	merged, res := Propagate(mustParse(t, oldSrc), mustParse(t, newSrc))
	if res.Injected != 1 {
		t.Fatalf("injected = %d", res.Injected)
	}
	printed := Print(merged)
	if !strings.HasPrefix(printed, `flor.log("start", 1)`) {
		t.Fatalf("front injection:\n%s", printed)
	}
}

func TestPropagateIdempotent(t *testing.T) {
	oldSrc := `
for e in flor.loop("epoch", range(2)) {
    loss = step(net)
    flor.log("loss", loss)
}
`
	f := mustParse(t, oldSrc)
	merged, res := Propagate(f, mustParse(t, oldSrc))
	if res.Injected != 0 {
		t.Fatalf("identical versions must inject nothing, got %d", res.Injected)
	}
	if Print(merged) != Print(f) {
		t.Fatal("idempotent propagation changed the file")
	}
}

func TestCountLogCallsAndLoggedNames(t *testing.T) {
	f := mustParse(t, `
flor.log("a", 1)
for e in flor.loop("epoch", range(2)) {
    flor.log("b", e)
    if e > 0 {
        flor.log("c", e)
    }
}
`)
	if countLogs(f) != 3 {
		t.Fatalf("count = %d", countLogs(f))
	}
	names := LoggedNames(f)
	for _, n := range []string{"a", "b", "c"} {
		if !names[n] {
			t.Fatalf("missing logged name %q", n)
		}
	}
}

func TestPropagatedFileExecutes(t *testing.T) {
	// End-to-end: the merged AST actually runs and emits the new log.
	oldSrc := `
total = 0
for e in flor.loop("epoch", range(3)) {
    total = total + e
}
`
	newSrc := `
total = 0
for e in flor.loop("epoch", range(3)) {
    total = total + e
    flor.log("running_total", total)
}
`
	merged, _ := Propagate(mustParse(t, oldSrc), mustParse(t, newSrc))
	h := &recordingHooks{}
	in := NewInterp(h, nil)
	if err := in.Run(merged); err != nil {
		t.Fatal(err)
	}
	if len(h.logs) != 3 || h.logs[2] != "running_total=3" {
		t.Fatalf("logs: %v", h.logs)
	}
}

// TestPropagatedErrorReportsNewLine: an injected statement is the new
// version's own node, so an error it raises in the merged file reports its
// line in the new version, and names that statement as the one it passed
// through.
func TestPropagatedErrorReportsNewLine(t *testing.T) {
	oldSrc := "xs = [1]\nflor.log(\"xs\", xs)\n"
	newSrc := "xs = [1]\nflor.log(\"xs\", xs)\n\nxs[5] = 2\n"
	merged, res := Propagate(mustParse(t, oldSrc), mustParse(t, newSrc))
	if res.Injected != 1 {
		t.Fatalf("injected = %d", res.Injected)
	}
	err := NewInterp(&recordingHooks{}, nil).Run(merged)
	var re *RuntimeError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want a RuntimeError", err)
	}
	if re.Line != 4 {
		t.Fatalf("error reported at line %d, want 4 (the line in the new version): %v", re.Line, err)
	}
	if re.Stmt == nil || !res.IsInjected(re.Stmt) {
		t.Fatalf("error names statement %v, want the injected one", re.Stmt)
	}
}
