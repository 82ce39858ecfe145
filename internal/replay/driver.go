package replay

import (
	"errors"
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
// metadata (§2's "magic trick"). Each version replays once, under a plan
// fixed from its merged script before the replay starts (analyze).
//
// Replays read history — args, loop contexts, checkpoints — through View, a
// pinned snapshot of the tables, and write what they backfill through
// Tables, as recording does. Tables, View and NextCtx are required:
// Hindsight refuses a driver that lacks one.
type Driver struct {
	Repo   *vcs.Repo
	Tables *record.Tables
	View   *record.TablesView
	WAL    *storage.WAL       // optional
	Blobs  *storage.BlobStore // optional
	ProjID string
	// NextCtx allocates the ctx_id of a loop context a replay creates. The
	// owning session passes its recorder's allocator (Recorder.NextCtx), so
	// backfilled and recorded loops rows never share an id.
	NextCtx func() int64
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
	VID      string
	Tstamp   int64
	Injected int
	// Mode is the plan the version was replayed under, fixed before the
	// replay from the merged script: "coarse" (an iteration with a
	// checkpoint skips its inner loop and restores the checkpoint), "full"
	// (inner loops run), or "none" (nothing to inject).
	Mode     string
	Stats    ReplayStats
	Duration time.Duration
	Skipped  bool // nothing to inject
	Err      error
}

// Hindsight runs the full propagate-and-replay pipeline for the file
// `filename`, whose newest content is newSrc, across the given historical
// versions. Reports are returned in the order of `versions`.
func (d *Driver) Hindsight(filename, newSrc string, versions []VersionJob, targets []int) ([]VersionReport, error) {
	if d.Tables == nil || d.View == nil || d.NextCtx == nil {
		return nil, errors.New("replay: a driver needs Tables, View and NextCtx")
	}
	newF, err := script.Parse(filename, newSrc)
	if err != nil {
		return nil, fmt.Errorf("replay: parse new version: %w", err)
	}

	workers := d.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(versions) && len(versions) > 0 {
		workers = len(versions)
	}

	reports := make([]VersionReport, len(versions))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				reports[idx] = d.replayOne(filename, newF, versions[idx], targets)
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

// replayOne propagates newF into one version, fixes its replay plan from
// the merged script, and replays it once under that plan.
func (d *Driver) replayOne(filename string, newF *script.File, job VersionJob, targets []int) VersionReport {
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

	facts := analyze(merged, res.IsInjected)
	rep.Mode = "coarse"
	if facts.innerNeeded {
		rep.Mode = "full"
	}
	ctx := &Context{ProjID: d.ProjID, Tstamp: job.Tstamp, Tables: d.Tables, WAL: d.WAL, Blobs: d.Blobs}
	ctx.SetFilename(filename)
	r := NewReplayer(ctx, d.View, d.NextCtx)
	r.NewNames = newNames
	r.InnerNeeded = facts.innerNeeded
	r.Carried = facts.carried
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
	if err := in.Run(merged); !errors.Is(err, errPlanDone) {
		rep.Err = sourceOf(err, filename, job.VID, res)
	}
	rep.Stats = r.Stats
	rep.Duration = time.Since(start)
	return rep
}

// sourceOf names the source a replay error's line counts in. The merged
// script carries the old version's file name, but a statement propagation
// injected keeps its line in the new source.
func sourceOf(err error, filename, vid string, res script.PropagateResult) error {
	var re *script.RuntimeError
	switch {
	case !errors.As(err, &re):
		return err
	case re.Stmt != nil && res.IsInjected(re.Stmt):
		return fmt.Errorf("%s (new source): %w", filename, err)
	default:
		return fmt.Errorf("%s@%s: %w", filename, vcs.Short(vid), err)
	}
}

// HistoricalVersions lists (vid, tstamp) pairs for every recorded execution
// of a file visible in the view, oldest first, using the ts2vid table.
// Versions where the file was committed but never executed (no loops/logs/
// args rows carry its filename at that timestamp) are skipped — hindsight
// logging backfills runs, not mere commits.
func HistoricalVersions(repo *vcs.Repo, tables *record.TablesView, projid, filename string) ([]VersionJob, error) {
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
