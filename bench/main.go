// Command bench is the repository's benchmark: four closed, seeded,
// fixed-op-count lifecycle workloads that report nine end-to-end metrics
// each, and — in a separate traced run — the per-layer metrics that explain
// them. It measures every layer from outside, by timing calls into exported
// functions; nothing else in the tree knows it exists. See README.md.
//
//	go run ./bench                         every workload, untraced
//	go run ./bench -trace                  every workload, traced
//	go run ./bench -workload cold-open     one workload
//	go run ./bench -selfcheck              the noise check behind NOISE.md
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// normalizeArgs rewrites the driver's "--trace 0" / "--trace 1" into the
// "-trace=0" form Go's flag package needs for a boolean.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, args[i])
	}
	return out
}

// defaultSeconds is run_seconds of BENCHMARK.json (TestDeclaredMetrics holds
// the two together).
const defaultSeconds = 18

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "run one workload in this process (default: all four, each in a child process)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&cfg.seconds, "seconds", defaultSeconds, "nominal measured seconds; op counts scale with it and are never read from a timer")
	fs.Float64Var(&cfg.scale, "scale", 1, "multiplies every data-set size and op count (tests use 0.01)")
	fs.BoolVar(&cfg.trace, "trace", false, "traced run: record spans, probe the layers, report per-layer metrics")
	fs.StringVar(&cfg.dataRoot, "dir", "", "parent of the data directories (default /dev/shm if writable, else the system's temporary directory)")
	fs.StringVar(&cfg.outDir, "out", filepath.Join("bench", "out"), "where result-*.json and trace-*.json are written")
	fs.BoolVar(&cfg.breakOracle, "break-oracle", false, "self-test: make the oracle expect one commit more than was acknowledged")
	selfcheck := fs.Bool("selfcheck", false, "run two interleaved sets of passes and compare their medians with the bounds in BENCHMARK.json")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if cfg.seconds <= 0 || cfg.scale <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds and -scale must be positive")
		return 2
	}
	if cfg.dataRoot == "" {
		cfg.dataRoot = defaultDataRoot()
	}
	var err error
	ok := false
	switch {
	case *selfcheck:
		ok, err = runSelfcheck(cfg, stdout, stderr)
	case cfg.workload == "":
		ok, err = runAll(cfg, stdout, stderr)
	default:
		ok, err = runOne(cfg, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// runOne runs one workload in this process, prints its report, writes its
// result (and trace) under cfg.outDir, and ends with the one-line JSON
// result. It removes its data directories even when interrupted.
func runOne(cfg config, stdout io.Writer) (bool, error) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		if _, interrupted := <-sig; interrupted {
			removeDataDirs(cfg.dataRoot)
			os.Exit(130)
		}
	}()
	defer func() {
		signal.Stop(sig)
		close(sig)
	}()

	r, err := runWorkload(cfg)
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return false, err
	}
	suffix := ""
	if cfg.trace {
		suffix = "-traced"
		if err := r.tracer.writeJSON(filepath.Join(cfg.outDir, "trace-"+r.Workload+".json")); err != nil {
			return false, err
		}
	}
	doc, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return false, err
	}
	if err := os.WriteFile(filepath.Join(cfg.outDir, "result-"+r.Workload+suffix+".json"), doc, 0o644); err != nil {
		return false, err
	}
	r.print(stdout)
	line, err := json.Marshal(r.line())
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return r.Correct, nil
}

// removeDataDirs removes this process's data directories under root.
func removeDataDirs(root string) {
	dirs, _ := filepath.Glob(filepath.Join(root, fmt.Sprintf("flordb-bench-%d-*", os.Getpid())))
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// removeStaleDataDirs removes the data directories of runs that were killed
// before they could: on tmpfs they would hold memory until the next boot.
func removeStaleDataDirs(root string) {
	dirs, _ := filepath.Glob(filepath.Join(root, "flordb-bench-*"))
	for _, d := range dirs {
		var pid int
		if _, err := fmt.Sscanf(filepath.Base(d), "flordb-bench-%d-", &pid); err != nil {
			continue
		}
		if syscall.Kill(pid, 0) == syscall.ESRCH {
			os.RemoveAll(d)
		}
	}
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) line() resultLine {
	l := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.EndToEnd}
	if r.Traced {
		l.Metrics = r.PerLayer
	}
	return l
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// endToEndOrder is the order the end-to-end metrics are printed in.
var endToEndOrder = []string{"setup_s", "op_p50_ms", "op_p95_ms", "work_per_s", "cpu_ms_per_op",
	"heap_mb", "write_amp", "disk_bytes_per_row", "ok_ratio"}

func (r *result) print(w io.Writer) {
	wl := lookupWorkload(r.Workload)
	fmt.Fprintf(w, "== %s  seed=%d seconds=%g scale=%g traced=%v\n", r.Workload, r.Seed, r.Seconds, r.Scale, r.Traced)
	fmt.Fprintf(w, "   %s\n   flush: %s\n", r.Env, r.Env.Flush)
	fmt.Fprintf(w, "   %d client goroutine(s); op latency limit %v; work unit: %s\n", wl.clients, wl.limit, wl.workUnit)
	fmt.Fprintf(w, "   %d blocks of the same work; the four timing metrics are the best block's\n", len(r.Blocks))
	fmt.Fprint(w, "   counts:")
	for _, k := range sortedKeys(r.Counts) {
		fmt.Fprintf(w, " %s=%d", k, r.Counts[k])
	}
	fmt.Fprintln(w)
	if r.Traced {
		fmt.Fprintln(w, "   traced run: end-to-end numbers below are NOT the benchmark's; they come from the untraced run")
	}
	for _, name := range endToEndOrder {
		m := r.EndToEnd[name]
		note := ""
		switch name {
		case "op_p50_ms", "op_p95_ms":
			note = fmt.Sprintf("  (%d samples in %d blocks)", r.Samples, len(r.Blocks))
		case "setup_s":
			note = fmt.Sprintf("  (median of %d set-ups)", len(r.SetupS))
		}
		fmt.Fprintf(w, "  %-20s %14.6g %-6s%s\n", name, m.Value, m.Unit, note)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, r.Correct)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  FAILED: %s\n", e)
	}
	if !r.Traced {
		return
	}
	fmt.Fprintln(w, "  -- spans (self time = duration − children; share of traced op time)")
	r.tracer.report(w, r.opMs)
	fmt.Fprintln(w, "  -- per-layer metrics")
	for _, name := range sortedKeys(r.PerLayer) {
		m := r.PerLayer[name]
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, class := range sortedKeys(r.Explains) {
		fmt.Fprintf(w, "  -- EXPLAIN %s\n     %s\n", class, strings.ReplaceAll(r.Explains[class], "\n", "\n     "))
	}
}

// runChild runs one workload in a fresh child process, so heap, CPU and
// collector state do not leak between workloads, and returns its last line.
// The child's report goes to report when that is set.
func runChild(cfg config, name string, report io.Writer) (resultLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return resultLine{}, err
	}
	cmd := exec.Command(exe,
		"-workload", name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
		"-scale", fmt.Sprint(cfg.scale), fmt.Sprintf("-trace=%v", cfg.trace), "-dir", cfg.dataRoot,
		"-out", cfg.outDir, fmt.Sprintf("-break-oracle=%v", cfg.breakOracle))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return resultLine{}, err
	}
	if err := cmd.Start(); err != nil {
		return resultLine{}, err
	}
	var last string
	sc := bufio.NewScanner(out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != "" && report != nil {
			fmt.Fprintln(report, last)
		}
		last = sc.Text()
	}
	werr := cmd.Wait()
	var line resultLine
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		if werr != nil {
			return line, fmt.Errorf("%s: %w", name, werr)
		}
		return line, fmt.Errorf("%s: last line is not a result: %w", name, err)
	}
	return line, nil // a non-zero exit with a result means "incorrect", which the line says
}

// runAll runs the four workloads one after another, each in its own process.
func runAll(cfg config, stdout, stderr io.Writer) (bool, error) {
	ok := true
	lines := map[string]resultLine{}
	for _, w := range workloads {
		line, err := runChild(cfg, w.name, stdout)
		if err != nil {
			return false, err
		}
		lines[w.name] = line
		ok = ok && line.Correct
	}
	if !cfg.trace {
		fmt.Fprintf(stdout, "\n%-20s", "metric")
		for _, w := range workloads {
			fmt.Fprintf(stdout, " %18s", w.name)
		}
		fmt.Fprintln(stdout)
		for _, name := range endToEndOrder {
			fmt.Fprintf(stdout, "%-20s", name)
			for _, w := range workloads {
				fmt.Fprintf(stdout, " %18.6g", lines[w.name].Metrics[name].Value)
			}
			fmt.Fprintf(stdout, "  %s\n", lines[workloads[0].name].Metrics[name].Unit)
		}
	}
	doc, err := json.Marshal(lines)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "%s\n", doc)
	return ok, nil
}
