package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	flor "flordb"
	"flordb/internal/pivot"
	"flordb/internal/record"
	"flordb/internal/relation"
	"flordb/internal/server"
	"flordb/internal/sqlparse"
	"flordb/internal/storage"
	"flordb/internal/vcs"
)

// The probe runs after the measured phase of a traced run, on the same data
// directory and the same generated inputs. Layers below Session cannot be
// seen from outside during an op, so the probe drives each layer's exported
// functions directly and times them. Session-level calls are recorded as
// spans under the names the measured ops use; where an op made the call
// itself, the op's spans take precedence over the probe's (tracer.stats).

const (
	probeRuns      = 40 // log + commit runs
	probeRefreshes = 8  // dashboard refreshes, over HTTP and in-process
	probeRecords   = 2_000
	probePins      = 2_000
	probeExecs     = 10 // executions per query class
	probeRepoSaves = 8
	probeWALCommit = 40
)

// probeValues are the probe's own measurements, by per-layer metric name.
type probeValues map[string]float64

func meanMs(total time.Duration, n int) float64 { return ms(total) / float64(n) }
func meanUs(total time.Duration, n int) float64 { return 1e3 * ms(total) / float64(n) }

func probe(c *runCtx) (probeValues, error) {
	p := probeValues{}
	tr := c.tr.track("probe")
	d := &dashboard{g: c.g, runs: c.runs}

	// flor: open, first query, first full scan.
	id := tr.begin("flor.open")
	s, err := flor.Open(c.dir, projID, flor.Options{RetainEpochs: 256})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	c.sess = s
	defer c.closeSession()
	d.floor = int(s.RetentionFloor())
	fq := d.firstQuery()
	id = tr.begin("flor.first_query")
	_, err = s.SQL(fq.sql)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("flor.first_scan")
	_, err = s.SQL(scanAggSQL)
	tr.end(id)
	if err != nil {
		return nil, err
	}

	if err := probeReads(c, p, tr, d); err != nil {
		return nil, err
	}

	// relation: pinning a snapshot.
	db := s.Database()
	t := time.Now()
	for i := 0; i < probePins; i++ {
		db.Snapshot().Release()
	}
	p["relation.snapshot_pin_us"] = meanUs(time.Since(t), probePins)
	for i := 0; i < probePins/10; i++ {
		id := tr.begin("flor.reader_pin")
		v, err := s.Reader()
		tr.end(id)
		if err != nil {
			return nil, err
		}
		v.Close()
	}

	// flor: the write path at this history depth, then GC and compaction.
	for i := 0; i < probeRuns; i++ {
		if err := c.g.run(s, tr, c.runs); err != nil {
			return nil, err
		}
		c.runs++
	}
	p["probe.wal_syncs"], p["probe.wal_commits"] = float64(s.WALSyncCount()), float64(s.WALCommitCount())
	id, t = tr.begin("flor.gc"), time.Now()
	gc, err := s.GCEpochs()
	tr.end(id)
	if err != nil {
		return nil, err
	}
	p["relation.gc_ms"], p["relation.gc_rows_reclaimed"] = ms(time.Since(t)), float64(gc.RowsReclaimed)
	t = time.Now()
	st, err := s.Compact()
	if err != nil {
		return nil, err
	}
	p["storage.compact_ms"], p["storage.compact_rows"] = ms(time.Since(t)), float64(st.Rows)
	id = tr.begin("flor.close")
	err = c.closeSession()
	tr.end(id)
	if err != nil {
		return nil, err
	}

	for _, layer := range []func(*runCtx, probeValues) error{probeRecord, probeStorage, probeVCS} {
		if err := layer(c, p); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// probeReads drives sqlparse, pivot and server on the open session: each
// query class executed pre-parsed on a pinned snapshot, the pivot built
// directly, and whole refreshes over HTTP and in-process, whose difference is
// what the serving tier adds.
func probeReads(c *runCtx, p probeValues, tr *track, d *dashboard) error {
	s := c.sess
	qs := d.refresh(0)

	var parse time.Duration
	parses := 0
	for range probeExecs {
		for _, q := range qs {
			if q.sql == "" {
				continue
			}
			t := time.Now()
			if _, err := sqlparse.Parse(q.sql); err != nil {
				return err
			}
			parse += time.Since(t)
			parses++
		}
	}
	p["sqlparse.parse_us"] = meanUs(parse, parses)

	snap := s.Database().Snapshot()
	defer snap.Release()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	execs := 0
	for _, q := range qs {
		if q.sql == "" {
			continue
		}
		stmt, err := sqlparse.Parse(q.sql)
		if err != nil {
			return err
		}
		t := time.Now()
		for range probeExecs {
			res, err := sqlparse.ExecuteOptions(snap, stmt, sqlparse.ExecOptions{})
			if err != nil {
				return fmt.Errorf("%s: %w", q.class, err)
			}
			if len(res.Rows) != q.rows {
				return fmt.Errorf("%s: got %d rows, want %d", q.class, len(res.Rows), q.rows)
			}
		}
		p["sqlparse.exec_"+q.class+"_ms"] = meanMs(time.Since(t), probeExecs)
		execs += probeExecs
	}
	runtime.ReadMemStats(&m1)
	p["sqlparse.allocs_per_query"] = float64(m1.Mallocs-m0.Mallocs) / float64(execs)

	tv, err := s.Tables().At(snap)
	if err != nil {
		return err
	}
	t := time.Now()
	var df *pivot.Dataframe
	for range probeExecs {
		if df, err = pivot.Build(tv, projID, []string{"loss", "acc"}, pivot.Options{}); err != nil {
			return err
		}
	}
	p["pivot.build_ms"], p["pivot.rows_out"] = meanMs(time.Since(t), probeExecs), float64(df.Len())

	// Whole refreshes, each over HTTP and then in-process, so both sides see
	// the same machine state.
	c.srv = server.New(s, server.Config{})
	w := &capture{header: http.Header{}}
	hits0, misses0 := s.PlanCacheStats()
	var httpTime, inproc time.Duration
	var bytesOut, rowsOut int
	var pruned, decoded int64
	for i := 0; i < probeRefreshes; i++ {
		qs := d.refresh(i)
		pruned0, decoded0 := relation.ScanStats()
		for _, q := range qs {
			t := time.Now()
			n, err := c.serve(tr, w, q)
			httpTime += time.Since(t)
			if err != nil {
				return err
			}
			bytesOut += n
			rowsOut += q.rows
		}
		pruned1, decoded1 := relation.ScanStats()
		pruned, decoded = pruned+pruned1-pruned0, decoded+decoded1-decoded0
		for _, q := range qs {
			t := time.Now()
			v, err := s.Reader()
			if err != nil {
				return err
			}
			if q.sql == "" {
				_, err = v.Dataframe("loss", "acc")
			} else {
				_, err = v.SQL(q.sql)
			}
			v.Close()
			inproc += time.Since(t)
			if err != nil {
				return err
			}
		}
	}
	hits1, misses1 := s.PlanCacheStats()
	p["server.http_overhead_ms"] = meanMs(httpTime-inproc, probeRefreshes)
	p["server.overhead_us_per_row"] = 1e3 * ms(httpTime-inproc) / float64(rowsOut)
	p["server.bytes_per_refresh"] = float64(bytesOut) / probeRefreshes
	p["relation.pages_decoded_per_refresh"] = float64(decoded) / probeRefreshes
	p["relation.pages_pruned_per_refresh"] = float64(pruned) / probeRefreshes
	p["probe.plan_hits"], p["probe.plan_misses"] = float64(hits1-hits0), float64(misses1-misses0)
	return nil
}

// probeRecord times the record codec on generated log records, and the
// snapshot codec on the newest snapshot in the data directory.
func probeRecord(c *runCtx, p probeValues) error {
	recs := make([]any, probeRecords)
	for i := range recs {
		k := i % namesPerIter
		v, vt := record.FormatValue(c.g.value(i/namesPerIter, 0, k))
		recs[i] = &record.LogRecord{Kind: record.KindLog, ProjID: projID, Tstamp: int64(1 + i/namesPerIter),
			Filename: trainFile, CtxID: int64(i / namesPerIter), ValueName: valueNames[k],
			Value: v, ValueType: vt, Wall: time.Now().UTC()}
	}
	lines := make([][]byte, len(recs))
	t := time.Now()
	for i, r := range recs {
		var err error
		if lines[i], err = record.Encode(r); err != nil {
			return err
		}
	}
	p["record.encode_us_per_rec"] = meanUs(time.Since(t), len(recs))
	decoded := make([]any, len(lines))
	t = time.Now()
	for i, l := range lines {
		var err error
		if decoded[i], err = record.Decode(l); err != nil {
			return err
		}
	}
	p["record.decode_us_per_rec"] = meanUs(time.Since(t), len(lines))
	tables, err := record.CreateTables(relation.NewDatabase())
	if err != nil {
		return err
	}
	t = time.Now()
	for _, r := range decoded {
		if err := tables.Apply(r); err != nil {
			return err
		}
	}
	p["record.apply_us_per_rec"] = meanUs(time.Since(t), len(decoded))

	snaps, err := storage.ListSnapshots(c.walPath())
	if err != nil {
		return err
	}
	if len(snaps) == 0 {
		return fmt.Errorf("no snapshot next to %s after Compact", c.walPath())
	}
	data, err := os.ReadFile(snaps[len(snaps)-1].Path)
	if err != nil {
		return err
	}
	db := relation.NewDatabase()
	if tables, err = record.CreateTables(db); err != nil {
		return err
	}
	t = time.Now()
	meta, err := record.ReadSnapshot(data, tables)
	if err != nil {
		return err
	}
	p["record.snapshot_read_ms"] = ms(time.Since(t))
	t = time.Now()
	if err := record.WriteSnapshot(io.Discard, meta, tables); err != nil {
		return err
	}
	p["record.snapshot_write_ms"] = ms(time.Since(t))
	rows, _ := db.RowVersions()
	p["record.snapshot_bytes_per_row"] = float64(len(data)) / float64(rows)
	return nil
}

// probeStorage times a WAL of its own with the product's flush policy, and
// recovery of the data directory into fresh tables.
func probeStorage(c *runCtx, p probeValues) error {
	walPath := filepath.Join(c.dir, "probe-wal", "flor.wal")
	if err := os.MkdirAll(filepath.Dir(walPath), 0o755); err != nil {
		return err
	}
	wal, err := storage.OpenWAL(walPath, storage.Options{SegmentBytes: storage.DefaultSegmentBytes})
	if err != nil {
		return err
	}
	per := c.g.logRecsPerRun()
	var appendTime, commitTime time.Duration
	for i := 0; i < probeWALCommit; i++ {
		t := time.Now()
		for k := 0; k < per; k++ {
			v, vt := record.FormatValue(c.g.value(i, k/namesPerIter, k%namesPerIter))
			err := wal.Append(&record.LogRecord{Kind: record.KindLog, ProjID: projID, Tstamp: int64(i + 1),
				Filename: trainFile, CtxID: int64(i), ValueName: valueNames[k%namesPerIter],
				Value: v, ValueType: vt, Wall: time.Now().UTC()})
			if err != nil {
				wal.Close()
				return err
			}
		}
		appendTime += time.Since(t)
		t = time.Now()
		err := wal.AppendCommit(&record.CommitRecord{Kind: record.KindCommit, ProjID: projID, Tstamp: int64(i + 1), Wall: time.Now().UTC()})
		commitTime += time.Since(t)
		if err != nil {
			wal.Close()
			return err
		}
	}
	if err := wal.Close(); err != nil {
		return err
	}
	size, err := dirBytes(filepath.Dir(walPath))
	if err != nil {
		return err
	}
	p["storage.wal_append_us_per_rec"] = meanUs(appendTime, probeWALCommit*per)
	p["storage.wal_commit_ms"] = meanMs(commitTime, probeWALCommit)
	p["storage.wal_bytes_per_rec"] = float64(size) / float64(probeWALCommit*(per+1))

	tables, err := record.CreateTables(relation.NewDatabase())
	if err != nil {
		return err
	}
	blobs, err := storage.NewBlobStore(filepath.Join(c.florDir(), "objects"))
	if err != nil {
		return err
	}
	t := time.Now()
	if _, err := storage.RecoverTables(c.walPath(), tables, blobs, "", true, storage.RecoverHooks{}); err != nil {
		return err
	}
	p["storage.recover_ms"] = ms(time.Since(t))
	return nil
}

// probeVCS times a commit into, and a save of, the version store at the
// depth the workload left it.
func probeVCS(c *runCtx, p probeValues) error {
	path := filepath.Join(c.florDir(), "repo.json")
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	p["vcs.repo_bytes"] = float64(info.Size())
	repo, err := vcs.Load(path)
	if err != nil {
		return err
	}
	out := filepath.Join(c.dir, "probe-repo.json")
	t := time.Now()
	for i := 0; i < probeRepoSaves; i++ {
		if _, err := repo.CommitFiles(map[string]string{trainFile: c.g.source(c.runs + i)}, "", time.Now()); err != nil {
			return err
		}
		if err := repo.Save(out); err != nil {
			return err
		}
	}
	p["vcs.commit_save_ms"] = meanMs(time.Since(t), probeRepoSaves)
	return nil
}

// layerInputs are the counters runWorkload read around the measured phase.
type layerInputs struct {
	ops                int
	mallocs, gcPauseNs uint64
	heap               uint64
	rowVersions        int64
	syncs, commits     int64
	hits, misses       uint64
	gcRows             int64
	decoded, pruned    int64
}

// layerUnits is the unit of every per-layer metric; its keys are exactly the
// per_layer names of BENCHMARK.json.
var layerUnits = map[string]string{
	"flor.log_us": "us", "flor.commit_ms": "ms", "flor.commit_max_ms": "ms",
	"flor.open_ms": "ms", "flor.first_query_ms": "ms", "flor.close_ms": "ms",
	"flor.first_scan_ms": "ms", "flor.reader_pin_us": "us", "flor.allocs_per_op": "count",

	"record.encode_us_per_rec": "us", "record.apply_us_per_rec": "us", "record.decode_us_per_rec": "us",
	"record.snapshot_read_ms": "ms", "record.snapshot_write_ms": "ms", "record.snapshot_bytes_per_row": "B/row",

	"storage.wal_append_us_per_rec": "us", "storage.wal_commit_ms": "ms", "storage.fsyncs_per_commit": "ratio",
	"storage.wal_bytes_per_rec": "B/rec", "storage.compact_ms": "ms", "storage.compact_count": "count",
	"storage.compact_rows": "count", "storage.recover_ms": "ms",

	"vcs.commit_save_ms": "ms", "vcs.repo_bytes": "B",

	"relation.snapshot_pin_us": "us", "relation.pages_decoded_per_refresh": "count",
	"relation.pages_pruned_per_refresh": "count", "relation.row_versions": "count",
	"relation.bytes_per_row_version": "B", "relation.gc_ms": "ms", "relation.gc_rows_reclaimed": "count",

	"sqlparse.parse_us": "us", "sqlparse.plan_cache_hit_rate": "ratio",
	"sqlparse.exec_point_ms": "ms", "sqlparse.exec_range_ms": "ms", "sqlparse.exec_scanagg_ms": "ms",
	"sqlparse.exec_join_ms": "ms", "sqlparse.exec_asof_ms": "ms", "sqlparse.allocs_per_query": "count",

	"pivot.build_ms": "ms", "pivot.rows_out": "count",

	"server.http_overhead_ms": "ms", "server.overhead_us_per_row": "us/row",
	"server.bytes_per_refresh": "B", "server.shed_count": "count",

	"bench.trace_overhead_ratio": "ratio", "bench.writer_late_p95_ms": "ms",
	"bench.go_gc_pause_ms": "ms", "bench.ops": "count", "bench.ops_over_250ms": "count",
}

// perLayer assembles every per-layer metric of a traced run: session-level
// timings from spans (the op's own where it made the call, else the
// probe's), counters read around the measured phase, and the probe's direct
// layer measurements.
func perLayer(c *runCtx, p probeValues, in layerInputs) map[string]metric {
	v := map[string]float64{}
	for name, x := range p {
		if _, ok := layerUnits[name]; ok {
			v[name] = x
		}
	}
	stats := c.tr.stats()
	span := func(name string) spanStat {
		if s := stats[name]; s != nil {
			return *s
		}
		return spanStat{count: 1}
	}
	v["flor.log_us"] = 1e3 * span("flor.log").meanMs() / float64(c.g.logRecsPerRun())
	v["flor.commit_ms"] = span("flor.commit").meanMs()
	v["flor.commit_max_ms"] = span("flor.commit").maxMs
	v["flor.open_ms"] = span("flor.open").meanMs()
	v["flor.first_query_ms"] = span("flor.first_query").meanMs()
	v["flor.close_ms"] = span("flor.close").meanMs()
	v["flor.first_scan_ms"] = span("flor.first_scan").meanMs()
	v["flor.reader_pin_us"] = 1e3 * span("flor.reader_pin").meanMs()
	v["flor.allocs_per_op"] = float64(in.mallocs) / float64(in.ops)

	// Counters of the measured session where it committed, parsed or served;
	// of the probe's session on a workload that bypasses the layer.
	syncs, commits := float64(in.syncs), float64(in.commits)
	if in.commits == 0 {
		syncs, commits = p["probe.wal_syncs"], p["probe.wal_commits"]
	}
	v["storage.fsyncs_per_commit"] = syncs / commits
	v["storage.compact_count"] = float64(c.compactions)
	hits, misses := float64(in.hits), float64(in.misses)
	if in.hits+in.misses == 0 {
		hits, misses = p["probe.plan_hits"], p["probe.plan_misses"]
	}
	v["sqlparse.plan_cache_hit_rate"] = hits / (hits + misses)
	if c.httpBytes > 0 { // the measured ops were refreshes: theirs, not the probe's
		v["relation.pages_decoded_per_refresh"] = float64(in.decoded) / float64(in.ops)
		v["relation.pages_pruned_per_refresh"] = float64(in.pruned) / float64(in.ops)
		v["server.bytes_per_refresh"] = float64(c.httpBytes) / float64(in.ops)
	}
	if len(c.gcMs) > 0 {
		v["relation.gc_ms"] = median(c.gcMs)
		v["relation.gc_rows_reclaimed"] = float64(in.gcRows)
	}
	v["relation.row_versions"] = float64(in.rowVersions)
	v["relation.bytes_per_row_version"] = float64(in.heap) / float64(in.rowVersions)
	v["server.shed_count"] = float64(c.shed)

	v["bench.trace_overhead_ratio"] = median(c.tracedMs)/median(c.plainMs) - 1
	v["bench.writer_late_p95_ms"] = quantile(sortedCopy(c.lateMs), 0.95)
	v["bench.go_gc_pause_ms"] = float64(in.gcPauseNs) / 1e6
	v["bench.ops"] = float64(in.ops)
	v["bench.ops_over_250ms"] = float64(c.stalls)

	out := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		out[name] = metric{v[name], unit}
	}
	return out
}
