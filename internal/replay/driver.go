package replay

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"flordb/internal/record"
	"flordb/internal/relation"
	"flordb/internal/script"
	"flordb/internal/storage"
	"flordb/internal/vcs"
)

// Driver orchestrates multiversion hindsight logging: given the latest
// version of a script containing new log statements, it (a) propagates the
// statements into every prior version via statement-level diffing, and (b)
// replays each version selectively and in parallel to materialize the new
// metadata (§2's "magic trick").
type Driver struct {
	Repo   *vcs.Repo
	Tables *record.Tables
	WAL    *storage.WAL       // optional
	Blobs  *storage.BlobStore // optional
	ProjID string
	// Setup registers host functions on each replay interpreter (model
	// constructors, featurizers, ...). It runs once per replayed version.
	Setup func(in *script.Interp)
	// Workers bounds replay parallelism; 0 means GOMAXPROCS.
	Workers int
}

// VersionJob names one historical version to backfill.
type VersionJob struct {
	VID    string
	Tstamp int64
}

// VersionReport describes what happened for one version.
type VersionReport struct {
	VID       string
	Tstamp    int64
	Injected  int
	Mode      string // "coarse", "full", or "none"
	Stats     ReplayStats
	Duration  time.Duration
	Skipped   bool // nothing to inject
	RetryFull bool // coarse replay failed; succeeded after full retry
	Err       error
}

// Hindsight runs the full propagate-and-replay pipeline for the file
// `filename`, whose newest content is newSrc, across the given historical
// versions. Reports are returned in the order of `versions`.
func (d *Driver) Hindsight(filename, newSrc string, versions []VersionJob, targets []int) ([]VersionReport, error) {
	newF, err := script.Parse(filename, newSrc)
	if err != nil {
		return nil, fmt.Errorf("replay: parse new version: %w", err)
	}
	newNamesAll := script.LoggedNames(newF)

	workers := d.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(versions) && len(versions) > 0 {
		workers = len(versions)
	}

	ctxCounter := MaxCtxID(d.Tables)

	reports := make([]VersionReport, len(versions))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				reports[idx] = d.replayOne(filename, newF, newNamesAll, versions[idx], targets, &ctxCounter)
			}
		}()
	}
	for i := range versions {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return reports, nil
}

func (d *Driver) replayOne(filename string, newF *script.File, newNamesAll map[string]bool, job VersionJob, targets []int, ctxCounter *int64) VersionReport {
	start := time.Now()
	rep := VersionReport{VID: job.VID, Tstamp: job.Tstamp, Mode: "none"}

	oldSrc, err := d.Repo.FileAt(job.VID, filename)
	if err != nil {
		rep.Err = err
		return rep
	}
	oldF, err := script.Parse(filename, oldSrc)
	if err != nil {
		rep.Err = fmt.Errorf("parse %s@%s: %w", filename, vcs.Short(job.VID), err)
		return rep
	}
	merged, res := script.Propagate(oldF, newF)
	rep.Injected = res.Injected
	if res.Injected == 0 {
		rep.Skipped = true
		rep.Duration = time.Since(start)
		return rep
	}

	// Names added by propagation = names in merged that the old version
	// did not log.
	oldNames := script.LoggedNames(oldF)
	newNames := make(map[string]bool)
	for n := range script.LoggedNames(merged) {
		if !oldNames[n] {
			newNames[n] = true
		}
	}

	innerNeeded := injectedInsideInnerLoop(merged)
	mode := "coarse"
	if innerNeeded {
		mode = "full"
	}

	stats, err := d.runReplay(filename, merged, job, newNames, targets, innerNeeded, ctxCounter)
	if err != nil && !innerNeeded {
		// COARSE can fail when post-inner-loop statements reference
		// variables defined inside the skipped inner loop; retry FULL.
		stats2, err2 := d.runReplay(filename, merged, job, newNames, targets, true, ctxCounter)
		if err2 == nil {
			rep.RetryFull = true
			mode = "full"
			stats = stats2
			err = nil
		} else {
			err = err2
		}
	}
	rep.Mode = mode
	rep.Stats = stats
	rep.Err = err
	rep.Duration = time.Since(start)
	return rep
}

func (d *Driver) runReplay(filename string, merged *script.File, job VersionJob, newNames map[string]bool, targets []int, innerNeeded bool, ctxCounter *int64) (ReplayStats, error) {
	ctx := &Context{
		ProjID:   d.ProjID,
		Filename: filename,
		Tstamp:   job.Tstamp,
		Tables:   d.Tables,
		WAL:      d.WAL,
		Blobs:    d.Blobs,
	}
	r := NewReplayer(ctx, ctxCounter)
	r.NewNames = newNames
	r.InnerNeeded = innerNeeded
	if targets != nil {
		r.Targets = make(map[int]bool, len(targets))
		for _, t := range targets {
			r.Targets[t] = true
		}
	}
	// A replay re-executes history to backfill logs; what it prints was
	// already printed when the version first ran.
	in := script.NewInterp(r, io.Discard)
	if d.Setup != nil {
		d.Setup(in)
	}
	err := in.Run(merged)
	return r.Stats, err
}

// injectedInsideInnerLoop reports whether any injected statement (Line()==0)
// sits at flor.loop nesting depth >= 2 — requiring FULL re-execution.
func injectedInsideInnerLoop(f *script.File) bool {
	found := false
	var walk func(stmts []script.Stmt, loopDepth int)
	walk = func(stmts []script.Stmt, loopDepth int) {
		for _, s := range stmts {
			depth := loopDepth
			if fs, ok := s.(*script.ForStmt); ok {
				if call, isCall := fs.Iterable.(*script.CallExpr); isCall && call.Fn == "flor.loop" {
					depth++
				}
			}
			if s.Line() == 0 && loopDepth >= 2 {
				found = true
			}
			for _, b := range script.Body(s) {
				walk(b, depth)
			}
		}
	}
	walk(f.Stmts, 0)
	return found
}

// HistoricalVersions lists (vid, tstamp) pairs for every recorded execution
// of a file, oldest first, using the ts2vid table. Versions where the file
// was committed but never executed (no loops/logs/args rows carry its
// filename at that timestamp) are skipped — hindsight logging backfills
// runs, not mere commits.
func HistoricalVersions(repo *vcs.Repo, tables *record.Tables, projid, filename string) ([]VersionJob, error) {
	vids, err := repo.AllVersionsOf(filename)
	if err != nil {
		return nil, err
	}
	byVID := make(map[string]int64)
	// ts2vid schema: projid, ts_start, ts_end, vid, root_target
	for _, row := range tables.Ts2vid.Rows() {
		if row[0].AsText() == projid {
			byVID[row[3].AsText()] = row[1].AsInt()
		}
	}
	executed := make(map[int64]bool)
	markExecuted := func(rows []relation.Row) {
		for _, row := range rows {
			if row[0].AsText() == projid && row[2].AsText() == filename {
				executed[row[1].AsInt()] = true
			}
		}
	}
	markExecuted(tables.Loops.Rows())
	markExecuted(tables.Logs.Rows())
	// args schema: projid, tstamp, filename, name, value
	markExecuted(tables.Args.Rows())

	var out []VersionJob
	for _, vid := range vids {
		if ts, ok := byVID[vid]; ok && executed[ts] {
			out = append(out, VersionJob{VID: vid, Tstamp: ts})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tstamp < out[j].Tstamp })
	return out, nil
}
