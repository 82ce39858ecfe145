package replay

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"flordb/internal/record"
	"flordb/internal/relation"
	"flordb/internal/script"
	"flordb/internal/vcs"
)

// loggedRows returns the logs rows at tstamp ts whose name is in names, as
// sorted "loop path | name | value" strings. The loop path names each
// enclosing loop context outermost first ("epoch=2/step=0"); it is empty
// outside every loop. keep, when non-nil, drops rows whose path it rejects.
func loggedRows(t *testing.T, tables *record.Tables, ts int64, names map[string]bool, keep func(path string) bool) []string {
	t.Helper()
	v := view(t, tables)
	type loop struct {
		parent int64
		step   string
	}
	loops := map[int64]loop{}
	for _, row := range v.Loops.Rows() {
		if row[1].AsInt() != ts {
			continue
		}
		step := row[5].AsText() + "=" + row[7].AsText()
		if iter := row[6].AsInt(); iter >= 0 {
			step = fmt.Sprintf("%s=%d", row[5].AsText(), iter)
		}
		loops[row[3].AsInt()] = loop{parent: row[4].AsInt(), step: step}
	}
	var out []string
	for _, row := range v.Logs.Rows() {
		if row[1].AsInt() != ts || !names[row[4].AsText()] {
			continue
		}
		var steps []string
		for ctx := row[3].AsInt(); ctx != 0; ctx = loops[ctx].parent {
			l, ok := loops[ctx]
			if !ok {
				t.Fatalf("logs row %v points at ctx %d, which has no loops row", row, ctx)
			}
			steps = append([]string{l.step}, steps...)
		}
		path := strings.Join(steps, "/")
		if keep == nil || keep(path) {
			out = append(out, path+" | "+row[4].AsText()+" | "+row[5].AsText())
		}
	}
	sort.Strings(out)
	return out
}

// inTargets keeps the paths inside a target iteration of the checkpoint
// loop "epoch"; nil targets keep every path.
func inTargets(targets []int) func(string) bool {
	if targets == nil {
		return nil
	}
	return func(path string) bool {
		for _, tgt := range targets {
			p := fmt.Sprintf("epoch=%d", tgt)
			if path == p || strings.HasPrefix(path, p+"/") {
				return true
			}
		}
		return false
	}
}

// reexecuted records src from scratch in fresh tables and returns the rows
// it logs for names: what re-execution logs, the hindsight oracle.
func reexecuted(t *testing.T, src string, names map[string]bool, keep func(string) bool) []string {
	t.Helper()
	tables := newTestTables(t)
	recordRun(t, tables, 1, Never{}, src)
	return loggedRows(t, tables, 1, names, keep)
}

// logName matches the literal name of a flor.log call in source text.
var logName = regexp.MustCompile(`flor\.log\("([^"]*)"`)

// addedNames returns the names newSrc's flor.log calls spell out and
// oldSrc's do not, read from the text rather than from script.Analyze.
func addedNames(oldSrc, newSrc string) map[string]bool {
	out := map[string]bool{}
	for _, m := range logName.FindAllStringSubmatch(newSrc, -1) {
		out[m[1]] = true
	}
	for _, m := range logName.FindAllStringSubmatch(oldSrc, -1) {
		delete(out, m[1])
	}
	return out
}

// commitVersion records src at tstamp ts under policy and commits it, as a
// session's run + Commit would.
func commitVersion(t *testing.T, repo *vcs.Repo, tables *record.Tables, ts int64, policy CheckpointPolicy, src string) VersionJob {
	t.Helper()
	recordRun(t, tables, ts, policy, src)
	vid, err := repo.CommitFiles(map[string]string{"train.flow": src}, "run", time.Unix(ts, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tables.Ts2vid.Insert(relation.Row{
		relation.Text("p"), relation.Int(ts), relation.Int(ts), relation.Text(vid), relation.Text("train"),
	}); err != nil {
		t.Fatal(err)
	}
	return VersionJob{VID: vid, Tstamp: ts}
}

// freshHosts registers the toy model's hosts over a model of the
// interpreter's own, so parallel replays share no state.
func freshHosts(in *script.Interp) { setupHosts(&toyModel{})(in) }

// hindsightCase is one generated history: the committed versions of a
// checkpointed training script, and the newest source, which adds
// flor.log statements to it, under names the versions never log.
type hindsightCase struct {
	versions []string
	policies []CheckpointPolicy
	newSrc   string
	names    map[string]bool // what newSrc's added logs are named
	targets  []int
	workers  int
}

// genHindsightCase draws a case from rng. Every version shares one shape —
// a prelude, a checkpointed outer flor.loop over epochs, an inner
// flor.loop over steps, a tail after the outer loop — and differs in its
// flor.arg defaults and checkpoint policy. The features toggle state that
// crosses iterations in a name (best, c), in a list (hist), or only
// through the checkpointed model (pre, mid and acc read it), and variables
// that the prelude, the outer body or the inner body assign. Added logs
// read a name in scope at a random position: the prelude, before, inside
// or after the inner loop, or after the checkpoint loop, as a statement or
// as the value of an assignment.
func genHindsightCase(rng *rand.Rand) hindsightCase {
	coin := func(n int) bool { return rng.Intn(n) == 0 }
	x0, best, hist, c := coin(2), coin(3), coin(4), coin(4)
	pre, b, mid := !coin(4), coin(2), coin(2)

	type pos int
	const (
		prelude pos = iota
		before
		inner
		after
		tail
		npos
	)
	var scope [npos][]string
	scope[prelude] = []string{"epochs", "steps", "k"}
	if x0 {
		scope[prelude] = append(scope[prelude], "x")
	}
	if best {
		scope[prelude] = append(scope[prelude], "best")
	}
	if hist {
		scope[prelude] = append(scope[prelude], "hist")
	}
	if c {
		scope[prelude] = append(scope[prelude], "c")
	}
	scope[before] = append(append([]string{}, scope[prelude]...), "epoch")
	if pre {
		scope[before] = append(scope[before], "pre")
	}
	if b {
		scope[before] = append(scope[before], "b")
	}
	scope[inner] = append(append([]string{}, scope[before]...), "step", "x")
	if mid {
		scope[inner] = append(scope[inner], "mid")
	}
	scope[after] = append(append([]string{}, scope[inner]...), "acc")
	scope[tail] = scope[after]

	// Half the added logs read the model's state where a name holds it,
	// which is wrong wherever a plan rebuilt it wrongly, whatever the mode.
	model := [npos]string{before: "pre", inner: "mid", after: "acc", tail: "acc"}
	var added [npos][]string
	names := map[string]bool{}
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		p := pos(rng.Intn(int(npos)))
		name := scope[p][rng.Intn(len(scope[p]))]
		if m := model[p]; m != "" && rng.Intn(2) == 0 && slices.Contains(scope[p], m) {
			name = m
		}
		log := fmt.Sprintf("flor.log(\"h%d\", %s)", i, name)
		if rng.Intn(2) == 0 {
			log = fmt.Sprintf("a%d = %s", i, log)
		}
		added[p] = append(added[p], log)
		names[fmt.Sprintf("h%d", i)] = true
	}

	render := func(epochs, steps int, logs [npos][]string) string {
		var sb strings.Builder
		line := func(indent int, s string) {
			sb.WriteString(strings.Repeat("    ", indent) + s + "\n")
		}
		lines := func(indent int, ss []string) {
			for _, s := range ss {
				line(indent, s)
			}
		}
		line(0, fmt.Sprintf("epochs = flor.arg(\"epochs\", %d)", epochs))
		line(0, fmt.Sprintf("steps = flor.arg(\"steps\", %d)", steps))
		line(0, "k = 7")
		if x0 {
			line(0, "x = -1")
		}
		if best {
			line(0, "best = 0")
		}
		if hist {
			line(0, "hist = []")
		}
		if c {
			line(0, "c = 0")
		}
		line(0, "net = make_model()")
		lines(0, logs[prelude])
		line(0, "with flor.checkpointing(model=net) {")
		line(1, "for epoch in flor.loop(\"epoch\", range(epochs)) {")
		if pre {
			line(2, "pre = eval_model(net)")
		}
		if b {
			line(2, "b = epoch * 2 + k")
		}
		lines(2, logs[before])
		line(2, "for step in flor.loop(\"step\", range(steps)) {")
		if c {
			line(3, "c = c + step")
			line(3, "x = epoch * 3 + step + c")
		} else {
			line(3, "x = epoch * 3 + step")
		}
		line(3, "train_step(net, x)")
		if mid {
			line(3, "mid = eval_model(net)")
		}
		if hist {
			line(3, "append(hist, x)")
		}
		lines(3, logs[inner])
		line(2, "}")
		line(2, "acc = eval_model(net)")
		line(2, "flor.log(\"acc\", acc)")
		if best {
			line(2, "best = best + acc")
		}
		lines(2, logs[after])
		line(1, "}")
		line(0, "}")
		lines(0, logs[tail])
		return sb.String()
	}

	hc := hindsightCase{names: names}
	for v, n := 0, 1+rng.Intn(4); v < n; v++ {
		hc.versions = append(hc.versions, render(1+rng.Intn(4), 1+rng.Intn(3), [npos][]string{}))
		// Every iteration checkpointed is the only cadence where a COARSE
		// iteration can start a run, so it gets two shares in five.
		policies := []CheckpointPolicy{Never{}, EveryN{N: 1}, EveryN{N: 1}, EveryN{N: 2}, EveryN{N: 3}}
		policy := policies[rng.Intn(len(policies))]
		hc.policies = append(hc.policies, policy)
	}
	hc.newSrc = render(1+rng.Intn(4), 1+rng.Intn(3), added)
	if rng.Intn(2) == 0 {
		hc.targets = []int{}
		for i := 0; i < 4; i++ {
			if rng.Intn(2) == 0 {
				hc.targets = append(hc.targets, i)
			}
		}
	}
	hc.workers = 1
	if rng.Intn(2) == 0 {
		hc.workers = 4
	}
	return hc
}

// checkHindsightCase commits hc's versions, backfills the newest source
// into all of them, and requires every version's added rows to be what
// recording its merged source from scratch logs for the generator's names,
// restricted to the target iterations when there are targets.
func checkHindsightCase(t *testing.T, hc hindsightCase) {
	t.Helper()
	tables := newTestTables(t)
	repo := vcs.NewRepo()
	var jobs []VersionJob
	for i, src := range hc.versions {
		jobs = append(jobs, commitVersion(t, repo, tables, int64(i+1), hc.policies[i], src))
	}
	d := &Driver{Repo: repo, Tables: tables, View: view(t, tables), NextCtx: allocAfter(t, tables), ProjID: "p", Setup: freshHosts, Workers: hc.workers}
	reports, err := d.Hindsight("train.flow", hc.newSrc, jobs, hc.targets)
	if err != nil {
		t.Fatal(err)
	}
	newF, err := script.Parse("train.flow", hc.newSrc)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reports {
		if rep.Err != nil {
			t.Fatalf("version %d (%s): %v\nold:\n%s\nnew:\n%s", i, hc.policies[i].Name(), rep.Err, hc.versions[i], hc.newSrc)
		}
		oldF, err := script.Parse("train.flow", hc.versions[i])
		if err != nil {
			t.Fatal(err)
		}
		merged, _ := script.Propagate(oldF, newF)
		want := reexecuted(t, script.Print(merged), hc.names, inTargets(hc.targets))
		got := loggedRows(t, tables, jobs[i].Tstamp, hc.names, nil)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("version %d (%s, mode %s, targets %v): hindsight logged\n  %s\nre-execution logs\n  %s\nmerged:\n%s",
				i, hc.policies[i].Name(), rep.Mode, hc.targets, strings.Join(got, "\n  "), strings.Join(want, "\n  "), script.Print(merged))
		}
	}
}

// TestHindsightEqualsReexecutionProperty: over seeded random scripts,
// version histories, checkpoint policies, added logs, targets and worker
// counts, hindsight logs exactly what re-execution of the merged source
// logs for the new names — restricted to the targets when there are any.
func TestHindsightEqualsReexecutionProperty(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 50
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			checkHindsightCase(t, genHindsightCase(rand.New(rand.NewSource(seed))))
		})
	}
}

// FuzzHindsightPlan feeds fuzz bytes to the property's generator as its
// seed.
func FuzzHindsightPlan(f *testing.F) {
	for _, s := range []string{"", "plan", "targets", "carried"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h := fnv.New64a()
		h.Write(data)
		checkHindsightCase(t, genHindsightCase(rand.New(rand.NewSource(int64(h.Sum64())))))
	})
}
