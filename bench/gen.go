package main

import (
	"fmt"
	"strconv"
	"strings"

	flor "flordb"
)

// The shared data shape ("a run"): one staged source file whose text changes
// every srcEvery runs, one hyperparameter, one flor.loop of E iterations
// logging loss, acc and 30 step metrics per iteration, then a commit.
const (
	projID       = "bench"
	trainFile    = "train.flow"
	stepMetrics  = 30
	namesPerIter = 2 + stepMetrics
	srcEvery     = 50
)

var valueNames = func() []string {
	n := []string{"loss", "acc"}
	for i := 0; i < stepMetrics; i++ {
		n = append(n, "m"+strconv.Itoa(i))
	}
	return n
}()

// generator makes every input from the seed alone: values are a hash of
// (seed, run, epoch, name index), so any run can be regenerated — for the
// payload byte count and the input digest — without having been stored.
type generator struct {
	seed   uint64
	epochs int // E: loop iterations per run

	// The last source text built, so a run does not rebuild an unchanged one.
	srcRev  int
	srcText string
}

func newGenerator(seed int64, epochs int) *generator {
	return &generator{seed: uint64(seed), epochs: epochs, srcRev: -1}
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// value is a metric reading in [0, 1) with six decimals, the precision a
// training script prints; its text length (and so the bytes logged) varies
// with the seed.
func (g *generator) value(run, epoch, k int) float64 {
	h := splitmix(g.seed ^ splitmix(uint64(run)<<20|uint64(epoch)<<8|uint64(k)))
	return float64(h%1_000_000) / 1e6
}

func (g *generator) lr(run int) float64 {
	return float64(1+splitmix(g.seed^uint64(run/srcEvery))%9) * 1e-4
}

// source is the staged script text of a run; it changes with run/srcEvery.
func (g *generator) source(run int) string {
	v := run / srcEvery
	if v == g.srcRev {
		return g.srcText
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# train.flow revision %d (seed %d)\n", v, g.seed)
	b.WriteString("lr = flor.arg(\"lr\", 0.001)\nmodel = make_model(hidden=")
	b.WriteString(strconv.FormatUint(64+splitmix(g.seed+uint64(v))%192, 10))
	b.WriteString(")\nfor epoch in flor.loop(\"epoch\", range(E)):\n")
	b.WriteString("    loss, acc = train_one_epoch(model, lr)\n")
	b.WriteString("    flor.log(\"loss\", loss)\n    flor.log(\"acc\", acc)\n")
	for i := 0; i < stepMetrics; i++ {
		fmt.Fprintf(&b, "    flor.log(\"m%d\", step_metric(model, %d))\n", i, i)
	}
	g.srcRev, g.srcText = v, b.String()
	return g.srcText
}

// run executes run number i (0-based) against the session: tstamp i+1 is
// written and, after the commit, the committed epoch is i+1. The three
// session-level calls are spans when tr is recording.
func (g *generator) run(s *flor.Session, tr *track, i int) error {
	s.StageFile(trainFile, g.source(i))
	id := tr.begin("flor.log")
	s.ArgFloat("lr", g.lr(i))
	it := s.Loop("epoch", g.epochs)
	for it.Next() {
		e := it.Index()
		for k, name := range valueNames {
			s.Log(name, g.value(i, e, k))
		}
	}
	tr.end(id)
	if err := it.Err(); err != nil {
		return fmt.Errorf("run %d: loop: %w", i, err)
	}
	id = tr.begin("flor.commit")
	err := s.Commit("")
	tr.end(id)
	if err != nil {
		return fmt.Errorf("run %d: commit: %w", i, err)
	}
	return nil
}

// payloadBytes is the user payload of runs from..to-1: the name and value
// text of every logged record plus each source revision that starts there.
func (g *generator) payloadBytes(from, to int) int64 {
	var n int64
	for i := from; i < to; i++ {
		if i%srcEvery == 0 {
			n += int64(len(g.source(i)))
		}
		for e := 0; e < g.epochs; e++ {
			for k, name := range valueNames {
				n += int64(len(name) + len(strconv.FormatFloat(g.value(i, e, k), 'g', -1, 64)))
			}
		}
	}
	return n
}

// digest folds the inputs of the first runs into one number, so a test can
// show that another seed gives other inputs.
func (g *generator) digest(runs int) uint64 {
	var d uint64
	for i := 0; i < runs; i++ {
		d = splitmix(d ^ uint64(len(g.source(i))) ^ uint64(g.lr(i)*1e6))
		for e := 0; e < g.epochs; e++ {
			for k := range valueNames {
				d = splitmix(d ^ uint64(g.value(i, e, k)*1e6))
			}
		}
	}
	return d
}

// Closed-form oracle. After R committed runs of E iterations each:

func (g *generator) logRecsPerRun() int { return g.epochs * namesPerIter }

// rowsPerRun counts the row versions one run adds across all base tables:
// its logs, one loops row per iteration, one args row and one ts2vid row.
func (g *generator) rowsPerRun() int { return g.logRecsPerRun() + g.epochs + 2 }

func (g *generator) logsRows(runs int) int64 { return int64(runs) * int64(g.logRecsPerRun()) }

// perName is the number of logs rows carrying one value_name.
func (g *generator) perName(runs int) int64 { return int64(runs) * int64(g.epochs) }
