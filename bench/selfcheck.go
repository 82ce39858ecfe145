package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark reads back: the
// declared metrics, and the bound of each end-to-end one.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var b benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	return b, json.Unmarshal(data, &b)
}

// quartiles are Python's statistics.quantiles(values, n=4), the definition
// the acceptance check uses.
func quartiles(values []float64) (q1, q2, q3 float64) {
	x := sortedCopy(values)
	n := len(x)
	if n < 2 {
		return x[0], x[0], x[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - 4*j
		return (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// runSelfcheck runs two interleaved sets of passes (A B A B …), every pass
// with a seed of its own as the acceptance check does, and prints per
// workload and metric each set's quartiles, the spread of all runs
// (interquartile distance over median) and how far the set medians
// disagree. It fails when a spread exceeds its bound or two set medians
// disagree by more than half of it. The output is Markdown: NOISE.md.
func runSelfcheck(cfg config, stdout, stderr io.Writer) (bool, error) {
	const passes = 5 // per set: ten runs per workload, as the acceptance check makes
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return false, fmt.Errorf("selfcheck reads the bounds from BENCHMARK.json in the working directory: %w", err)
	}
	// values[workload][metric][set] = one value per pass
	values := map[string]map[string]*[2][]float64{}
	for _, w := range workloads {
		values[w.name] = map[string]*[2][]float64{}
		for _, m := range bf.EndToEnd {
			values[w.name][m.Name] = &[2][]float64{}
		}
	}
	start := time.Now()
	for pass := 0; pass < passes; pass++ {
		for set := 0; set < 2; set++ {
			run := cfg
			run.seed = cfg.seed + int64(2*pass+set)
			for _, w := range workloads {
				line, err := runChild(run, w.name, nil)
				if err != nil {
					return false, err
				}
				if !line.Correct || line.Failed > 0 {
					return false, fmt.Errorf("%s seed %d: correct=%v failed=%d", w.name, run.seed, line.Correct, line.Failed)
				}
				for _, m := range bf.EndToEnd {
					v := values[w.name][m.Name]
					v[set] = append(v[set], line.Metrics[m.Name].Value)
				}
				fmt.Fprintf(stderr, "selfcheck: pass %d set %c %s done (%v)\n", pass+1, 'A'+set, w.name, time.Since(start).Round(time.Second))
			}
		}
	}

	fmt.Fprintf(stdout, "# Noise check (`go run ./bench -selfcheck`)\n\n")
	fmt.Fprintf(stdout, "Two interleaved sets (A B A B …) of %d passes, %d runs per workload, seeds %d..%d, `-seconds %g -scale %g`.\n\n",
		passes, 2*passes, cfg.seed, cfg.seed+int64(2*passes-1), cfg.seconds, cfg.scale)
	env := stampEnv(cfg.dataRoot)
	fmt.Fprintf(stdout, "Environment: %s\n\nFlush policy: %s\n\n", env, env.Flush)
	fmt.Fprintln(stdout, "`spread` is the distance between the first and third quartile of all runs over their median")
	fmt.Fprintln(stdout, "(quartiles as Python's `statistics.quantiles(values, n=4)`); it must stay within the bound and")
	fmt.Fprintln(stdout, "should stay under a third of it. `A vs B` is the disagreement of the two set medians; it must stay")
	fmt.Fprintln(stdout, "within half the bound.")
	ok := true
	for _, w := range workloads {
		fmt.Fprintf(stdout, "\n## %s\n\n", w.name)
		fmt.Fprintln(stdout, "| metric | unit | bound | A q1 / median / q3 | B q1 / median / q3 | spread | A vs B | verdict |")
		fmt.Fprintln(stdout, "|---|---|---|---|---|---|---|---|")
		for _, m := range bf.EndToEnd {
			v := values[w.name][m.Name]
			a1, a2, a3 := quartiles(v[0])
			b1, b2, b3 := quartiles(v[1])
			q1, q2, q3 := quartiles(append(append([]float64(nil), v[0]...), v[1]...))
			spread := (q3 - q1) / q2
			disagree := math.Abs(a2-b2) / math.Min(a2, b2)
			verdict := "ok"
			switch {
			case spread > m.Bound:
				verdict, ok = "FAIL: spread over the bound", false
			case disagree > m.Bound/2:
				verdict, ok = "FAIL: medians disagree", false
			case spread > m.Bound/3:
				verdict = "ok (spread over a third of the bound)"
			}
			fmt.Fprintf(stdout, "| `%s` | %s | %.3g | %.6g / %.6g / %.6g | %.6g / %.6g / %.6g | %.2f%% | %.2f%% | %s |\n",
				m.Name, m.Unit, m.Bound, a1, a2, a3, b1, b2, b3, 100*spread, 100*disagree, verdict)
		}
	}
	fmt.Fprintf(stdout, "\nTook %v.\n", time.Since(start).Round(time.Second))
	return ok, nil
}
