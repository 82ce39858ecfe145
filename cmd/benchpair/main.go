// Command benchpair is the repository's one measuring instrument: it
// builds ./bench (bench/, BENCHMARK.json) from the committed files of a
// base revision and from the work tree, runs the two binaries in
// alternating pairs — the order flipped every pair, the same seed on both
// sides of a pair — and prints, per workload/metric, both medians, both
// interquartile ranges, how many pairs the work tree won, the bound
// BENCHMARK.json puts on the metric, and the verdict:
//
//	gain        at least ten pairs ran, the tree won at least nine in ten,
//	            its median is better than the base's by more than the
//	            base's own interquartile range, and its failed/attempted
//	            share of ops is no higher
//	regression  the tree's median is worse than the base's by more than
//	            the bound
//	unresolved  the base's IQR is wider than the bound (relative to its
//	            median) and not every tree run beats every base run, so
//	            "no change" cannot be told from noise
//	same        anything else
//	missing     the metric is absent from some run on either side
//
//	make bench-pair BASE=HEAD~1 WORKLOAD=train-ingest PAIRS=10
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// declared is the part of BENCHMARK.json the report needs.
type declared struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// resultLine is the last line of a bench run's standard output.
type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	base := flag.String("base", "", "revision to compare the work tree with (required)")
	workload := flag.String("workload", "", "comma-separated workloads (default: every workload of BENCHMARK.json)")
	pairs := flag.Int("pairs", 10, "pairs of runs per workload")
	flag.Parse()
	if *base == "" || *pairs < 1 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*base, *workload, *pairs); err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

func run(base, workloadList string, pairs int) error {
	var decl declared
	doc, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	if err := json.Unmarshal(doc, &decl); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var workloads []string
	for _, w := range decl.Workloads {
		workloads = append(workloads, w.Name)
	}
	if workloadList != "" {
		workloads = strings.Split(workloadList, ",")
	}

	tmp, err := os.MkdirTemp("", "benchpair-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	rev, err := output("", "git", "rev-parse", "--short", base)
	if err != nil {
		return err
	}
	// The base side is built from the revision's committed files in a
	// directory of their own, as the acceptance driver builds it.
	baseSrc := filepath.Join(tmp, "base-src")
	if err := os.Mkdir(baseSrc, 0o755); err != nil {
		return err
	}
	if _, err := output("", "sh", "-c", `git archive "$0" | tar -x -C "$1"`, base, baseSrc); err != nil {
		return err
	}
	bins := [2]string{filepath.Join(tmp, "bench-base"), filepath.Join(tmp, "bench-tree")}
	for side, src := range [2]string{baseSrc, "."} {
		if _, err := output(src, "go", "build", "-o", bins[side], "./bench"); err != nil {
			return err
		}
	}

	fmt.Printf("bench-pair: base %s (%s) vs work tree; %d pairs, order flipped every pair, seeds 1..%d, %g s per run\n",
		base, rev, pairs, pairs, decl.RunSeconds)
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d %s kernel=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernel())

	for _, w := range workloads {
		// metric -> per side, one value per pair; NaN where a run lacked it
		values := map[string]*[2][]float64{}
		var failed, attempted [2]int
		for p := 0; p < pairs; p++ {
			for k := 0; k < 2; k++ {
				side := (p + k) % 2 // even pairs run the base first
				line, err := benchRun(bins[side], tmp, w, p+1, decl.RunSeconds)
				if err != nil {
					return fmt.Errorf("%s pair %d (%s): %w", w, p, [2]string{"base", "tree"}[side], err)
				}
				failed[side], attempted[side] = failed[side]+line.Failed, attempted[side]+line.Attempted
				for name, m := range line.Metrics {
					if values[name] == nil {
						values[name] = &[2][]float64{nanSlice(pairs), nanSlice(pairs)}
					}
					values[name][side][p] = m.Value
				}
			}
			fmt.Fprintf(os.Stderr, "%s: pair %d/%d done\n", w, p+1, pairs)
		}
		// The tree fails a larger share of its ops than the base:
		// failed[1]/attempted[1] > failed[0]/attempted[0], cross-multiplied.
		moreFailed := failed[1]*attempted[0] > failed[0]*attempted[1]
		fmt.Printf("\n%s — failed/attempted ops: base %d/%d, tree %d/%d\n", w, failed[0], attempted[0], failed[1], attempted[1])
		fmt.Printf("%-20s %-6s %12s %11s %12s %11s %8s %6s %6s  %s\n", "metric", "unit", "base median", "base IQR", "tree median", "tree IQR", "change", "wins", "bound", "verdict")
		for _, m := range decl.EndToEnd {
			var v [2][]float64
			if p := values[m.Name]; p != nil {
				v = *p
			}
			s := summarize(v[0], v[1], m, moreFailed)
			if s.verdict == verdictMissing {
				fmt.Printf("%-20s %-6s %12s %11s %12s %11s %8s %6s %6g  %s\n", m.Name, m.Unit, "-", "-", "-", "-", "-", "-", m.Bound, s.verdict)
				continue
			}
			fmt.Printf("%-20s %-6s %12.6g %11.4g %12.6g %11.4g %+7.1f%% %3d/%-2d %6g  %s\n",
				m.Name, m.Unit, s.baseMedian, s.baseIQR, s.treeMedian, s.treeIQR, s.changePct, s.wins, len(v[0]), m.Bound, s.verdict)
		}
	}
	return nil
}

func nanSlice(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = math.NaN()
	}
	return s
}

// benchRun runs one workload once and returns the result line; a run that
// answered wrongly is an error, since its numbers mean nothing.
func benchRun(bin, tmp, workload string, seed int, seconds float64) (resultLine, error) {
	var line resultLine
	out, err := output("", bin, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", "0", "-out", filepath.Join(tmp, "out"))
	if err != nil {
		return line, err
	}
	last := out[strings.LastIndexByte(out, '\n')+1:]
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		return line, fmt.Errorf("last line is not a result: %w", err)
	}
	if !line.Correct {
		return line, fmt.Errorf("incorrect run: %s", last)
	}
	return line, nil
}

const (
	verdictGain       = "gain"
	verdictRegression = "regression"
	verdictUnresolved = "unresolved"
	verdictSame       = "same"
	verdictMissing    = "missing"
)

type summary struct {
	baseMedian, baseIQR, treeMedian, treeIQR float64
	changePct                                float64 // tree median against base median
	wins                                     int     // pairs in which the tree was strictly better
	verdict                                  string
}

// summarize compares the paired values of one metric, base[i] and tree[i]
// coming from pair i, and gives the verdict the package comment defines.
// moreFailed says the tree failed a larger share of its ops than the base,
// which rules out a gain. A metric with no values, a different number of
// values on the two sides, or a NaN (a run that did not report it) is
// missing.
func summarize(base, tree []float64, m metricDecl, moreFailed bool) summary {
	if len(base) == 0 || len(base) != len(tree) {
		return summary{verdict: verdictMissing}
	}
	for i := range base {
		if math.IsNaN(base[i]) || math.IsNaN(tree[i]) {
			return summary{verdict: verdictMissing}
		}
	}
	q := func(v []float64, p float64) float64 {
		s := append([]float64(nil), v...)
		sort.Float64s(s)
		pos := p * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	s := summary{
		baseMedian: q(base, 0.5), baseIQR: q(base, 0.75) - q(base, 0.25),
		treeMedian: q(tree, 0.5), treeIQR: q(tree, 0.75) - q(tree, 0.25),
	}
	if s.baseMedian != 0 {
		s.changePct = 100 * (s.treeMedian - s.baseMedian) / s.baseMedian
	}
	// sign orients every comparison below: with it, lower is better.
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	better := func(a, b float64) bool { return sign*a < sign*b }
	for i := range base {
		if better(tree[i], base[i]) {
			s.wins++
		}
	}
	// improvement is how far the tree's median is better than the base's
	// (negative when worse), in the metric's unit.
	improvement := sign * (s.baseMedian - s.treeMedian)
	everyRunBetter := true
	for _, t := range tree {
		for _, b := range base {
			everyRunBetter = everyRunBetter && better(t, b)
		}
	}
	switch {
	case len(base) >= 10 && 10*s.wins >= 9*len(base) && improvement > s.baseIQR && !moreFailed:
		s.verdict = verdictGain
	case -improvement > m.Bound*math.Abs(s.baseMedian):
		s.verdict = verdictRegression
	case s.baseIQR > m.Bound*math.Abs(s.baseMedian) && !everyRunBetter:
		s.verdict = verdictUnresolved
	default:
		s.verdict = verdictSame
	}
	return s
}

// output runs a command in dir and returns its trimmed standard output;
// standard error passes through.
func output(dir, name string, args ...string) (string, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("%s %s: %w", name, strings.Join(args, " "), err)
	}
	return string(bytes.TrimSpace(out)), nil
}

func kernel() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return runtime.GOOS
	}
	return string(bytes.TrimSpace(b))
}
