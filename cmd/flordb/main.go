// Command flordb is the command-line interface to the FlorDB reproduction.
//
//	flordb run <script.flow> [--arg name=value ...]   record a pipeline script
//	flordb hindsight <script.flow> <new.flow>         propagate + replay new logs
//	flordb dataframe <name> [<name> ...]              pivoted metadata view
//	flordb sql "<query>"                              SQL over the Figure-1 schema
//	flordb sql --format json|csv "<query>"            machine-readable output
//	flordb sql --as-of <epoch> "<query>"              time travel: query a past epoch
//	flordb sql "EXPLAIN <query>"                      show the chosen query plan
//	flordb versions <script.flow>                     committed versions of a file
//	flordb compact                                    fold WAL history into a snapshot
//	flordb build <Makefile> <goal>                    run a pipeline Makefile
//	flordb serve [--addr :8080]                       feedback web UI + SQL-over-HTTP API
//	flordb serve --replicate-from=URL                 serve as a read-only replica
//	flordb promote [--replicate-from=URL]             flip a replica directory writable
//	flordb demo                                       end-to-end PDF-parser demo
//
// serve mounts the Figure-6 feedback UI at / and the JSON query API at
// /sql, /explain, /dataframe and /healthz, with bounded request admission
// and graceful shutdown on SIGINT/SIGTERM. A primary additionally ships
// sealed WAL segments to followers from /repl/; with --replicate-from the
// process is instead a follower: it tails the named primary, serves
// read-only queries from its own MVCC snapshots, and answers 503 with
// Retry-After when lagging beyond --max-lag-epochs or --max-stale.
//
// State lives under ./.flor in the working directory (override with --dir).
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	flor "flordb"
	"flordb/internal/build"
	"flordb/internal/docsim"
	"flordb/internal/hostlib"
	"flordb/internal/mlsim"
	"flordb/internal/repl"
	"flordb/internal/server"
	"flordb/internal/sqlparse"
	"flordb/internal/storage"
	"flordb/internal/vcs"
	"flordb/internal/webui"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "flordb:", err)
		os.Exit(1)
	}
}

func usage() error {
	return fmt.Errorf("usage: flordb {run|hindsight|dataframe|sql|versions|compact|build|serve|promote|demo} ...")
}

func run(args []string) error {
	if len(args) == 0 {
		return usage()
	}
	cmd, rest := args[0], args[1:]

	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	dir := fs.String("dir", ".", "project directory (state in <dir>/.flor)")
	proj := fs.String("project", "pdf-parser", "project id")
	addr := fs.String("addr", ":8080", "listen address for serve")
	docs := fs.Int("docs", 8, "synthetic corpus size")
	seed := fs.Int("seed", 1, "corpus seed")
	format := fs.String("format", "table", "sql output format: table|json|csv")
	asOf := fs.Int64("as-of", -1, "sql: run against this historical commit epoch (-1 = latest)")
	maxInFlight := fs.Int("max-inflight", 32, "serve: max concurrently executing API queries")
	maxQueue := fs.Int("max-queue", 64, "serve: max API queries waiting for a slot before 429")
	replicateFrom := fs.String("replicate-from", "", "serve/promote: primary base URL to replicate from (e.g. http://primary:8080)")
	maxLagEpochs := fs.Int64("max-lag-epochs", 64, "replica: refuse reads when lagging more epochs than this (0 = no bound)")
	maxStale := fs.Duration("max-stale", 30*time.Second, "replica: refuse reads after this long without primary contact (0 = no bound)")
	retainSegments := fs.Int("retain-segments", 0, "primary: sealed WAL segments compaction keeps for late-joining replicas")
	var scriptArgs argList
	fs.Var(&scriptArgs, "arg", "script argument name=value (repeatable)")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	pos := fs.Args()

	openSess := func() (*flor.Session, *hostlib.State, error) {
		sess, err := flor.Open(*dir, *proj, flor.Options{Args: scriptArgs.m, Stdout: os.Stdout, RetainSegments: *retainSegments})
		if err != nil {
			return nil, nil, err
		}
		st := hostlib.NewState(docsim.Config{
			NumDocs: *docs, MinPages: 3, MaxPages: 8, OCRFraction: 0.4, Seed: uint64(*seed),
		}, 16)
		hostlib.Register(sess, st)
		hostlib.RegisterFlorQueries(sess, sess)
		return sess, st, nil
	}

	switch cmd {
	case "run":
		if len(pos) != 1 {
			return fmt.Errorf("usage: flordb run <script.flow>")
		}
		src, err := os.ReadFile(pos[0])
		if err != nil {
			return err
		}
		sess, _, err := openSess()
		if err != nil {
			return err
		}
		defer sess.Close()
		name := filepath.Base(pos[0])
		if err := sess.RunScript(name, string(src)); err != nil {
			return err
		}
		if err := sess.Commit("flordb run " + name); err != nil {
			return err
		}
		fmt.Printf("recorded %s as version %d\n", name, sess.Tstamp()-1)
		return nil

	case "hindsight":
		if len(pos) != 2 {
			return fmt.Errorf("usage: flordb hindsight <script.flow> <new-version.flow>")
		}
		newSrc, err := os.ReadFile(pos[1])
		if err != nil {
			return err
		}
		sess, _, err := openSess()
		if err != nil {
			return err
		}
		defer sess.Close()
		name := filepath.Base(pos[0])
		reports, err := sess.Hindsight(name, string(newSrc), nil)
		if err != nil {
			return err
		}
		for _, rep := range reports {
			status := "ok"
			if rep.Err != nil {
				status = rep.Err.Error()
			} else if rep.Skipped {
				status = "skipped (no new statements)"
			}
			fmt.Printf("%s  ts=%d  injected=%d  mode=%-6s  ran=%d skipped=%d restored=%d logs=%d  %s  [%s]\n",
				vcs.Short(rep.VID), rep.Tstamp, rep.Injected, rep.Mode,
				rep.Stats.IterationsRun, rep.Stats.IterationsSkipped,
				rep.Stats.Restores, rep.Stats.LogsEmitted, rep.Duration.Round(1e5), status)
		}
		return nil

	case "dataframe":
		if len(pos) == 0 {
			return fmt.Errorf("usage: flordb dataframe <name> [<name> ...]")
		}
		sess, _, err := openSess()
		if err != nil {
			return err
		}
		defer sess.Close()
		df, err := sess.Dataframe(pos...)
		if err != nil {
			return err
		}
		fmt.Print(df.String())
		return nil

	case "sql":
		if len(pos) != 1 {
			return fmt.Errorf("usage: flordb sql \"SELECT ...\"")
		}
		sess, _, err := openSess()
		if err != nil {
			return err
		}
		defer sess.Close()
		var res *sqlparse.Result
		if *asOf >= 0 {
			view, err := sess.ReaderAt(*asOf)
			if err != nil {
				return err
			}
			res, err = view.SQL(pos[0])
			if err != nil {
				return err
			}
		} else {
			var err error
			res, err = sess.SQL(pos[0])
			if err != nil {
				return err
			}
		}
		return printSQLResult(os.Stdout, res, *format)

	case "versions":
		if len(pos) != 1 {
			return fmt.Errorf("usage: flordb versions <script.flow>")
		}
		sess, _, err := openSess()
		if err != nil {
			return err
		}
		defer sess.Close()
		versions, err := sess.Versions(filepath.Base(pos[0]))
		if err != nil {
			return err
		}
		for _, v := range versions {
			fmt.Printf("%s  ts=%d\n", vcs.Short(v.VID), v.Tstamp)
		}
		return nil

	case "compact":
		sess, _, err := openSess()
		if err != nil {
			return err
		}
		defer sess.Close()
		st, err := sess.Compact()
		if err != nil {
			return err
		}
		if st.SnapshotSeq == 0 {
			fmt.Println("nothing to compact (no sealed WAL segments)")
			return nil
		}
		fmt.Printf("snapshot covers segments 1..%d (%d rows); removed %d segment(s), %d old snapshot(s)\n",
			st.SnapshotSeq, st.Rows, st.SegmentsRemoved, st.SnapshotsRemoved)
		return nil

	case "build":
		if len(pos) != 2 {
			return fmt.Errorf("usage: flordb build <Makefile> <goal>")
		}
		text, err := os.ReadFile(pos[0])
		if err != nil {
			return err
		}
		mf, err := build.Parse(string(text))
		if err != nil {
			return err
		}
		sess, _, err := openSess()
		if err != nil {
			return err
		}
		defer sess.Close()
		runner := build.NewRunner(mf, func(rule build.Rule) error {
			fmt.Printf("[%s] %s\n", rule.Target, strings.Join(rule.Cmds, " && "))
			for _, c := range rule.Cmds {
				c = strings.TrimPrefix(strings.TrimSpace(c), "@")
				if strings.HasPrefix(c, "flow ") {
					scriptPath := strings.TrimSpace(strings.TrimPrefix(c, "flow "))
					src, err := os.ReadFile(filepath.Join(*dir, scriptPath))
					if err != nil {
						return err
					}
					if err := sess.RunScript(filepath.Base(scriptPath), string(src)); err != nil {
						return err
					}
				}
			}
			return nil
		}, 4)
		if err := sess.RegisterBuild(mf, runner); err != nil {
			return err
		}
		if err := runner.Run(pos[1]); err != nil {
			return err
		}
		if err := sess.Commit("flordb build " + pos[1]); err != nil {
			return err
		}
		fmt.Println("dataflow:")
		fmt.Print(build.Dataflow(mf))
		return nil

	case "serve":
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()

		cfg := server.Config{MaxInFlight: *maxInFlight, MaxQueue: *maxQueue}
		var sess *flor.Session
		var st *hostlib.State
		var follower *repl.Follower
		var primary *repl.Primary
		if *replicateFrom != "" {
			// Follower: tail the primary, serve read-only queries from local
			// MVCC snapshots, and gate reads on the staleness bound.
			f, err := repl.StartFollower(ctx, repl.FollowerConfig{
				PrimaryURL:   strings.TrimRight(*replicateFrom, "/"),
				Dir:          *dir,
				ProjID:       *proj,
				MaxLagEpochs: *maxLagEpochs,
				MaxFetchAge:  *maxStale,
				Logf:         func(format string, args ...any) { fmt.Printf(format+"\n", args...) },
				Open:         flor.Options{Stdout: os.Stdout, RetainSegments: *retainSegments},
			})
			if err != nil {
				return err
			}
			follower = f
			sess = f.Session()
			st = hostlib.NewState(docsim.Config{
				NumDocs: *docs, MinPages: 3, MaxPages: 8, OCRFraction: 0.4, Seed: uint64(*seed),
			}, 16)
			cfg.Gate = f.Gate
			go func() {
				if err := f.Run(ctx); err != nil {
					fmt.Fprintln(os.Stderr, "flordb: replication stopped:", err)
				}
			}()
		} else {
			var err error
			sess, st, err = openSess()
			if err != nil {
				return err
			}
			blobs, err := storage.NewBlobStore(filepath.Join(*dir, ".flor", "objects"))
			if err != nil {
				sess.Close()
				return err
			}
			primary = repl.NewPrimary(sess, blobs)
		}
		defer sess.Close()

		model := mlsim.NewMLP(st.Dim, 32, 2, mlsim.NewRNG(7))
		ui := webui.NewServer(sess, st.Corpus, func(doc *docsim.Document) []bool {
			out := make([]bool, len(doc.Pages))
			for i, p := range doc.Pages {
				out[i] = model.Predict(docsim.Vectorize(p, st.Dim)) == 1
			}
			return out
		})
		api := server.New(sess, cfg)
		// One mux: the JSON query API next to the Figure-6 feedback UI,
		// both reading the same session through snapshots.
		mux := http.NewServeMux()
		mux.Handle("/sql", api)
		mux.Handle("/explain", api)
		mux.Handle("/dataframe", api)
		mux.Handle("/healthz", api)
		mux.Handle("/metrics", api)
		mux.Handle("/", ui)
		if primary != nil {
			mux.Handle("/repl/", primary.Routes())
		}

		// Surface the replication gauges in the serve log, mirroring /healthz.
		go func() {
			t := time.NewTicker(30 * time.Second)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					g := sess.Metrics().Snapshot().Gauges
					if follower != nil {
						fmt.Printf("repl: replica_lag_epochs=%.0f replica_last_fetch_unix=%.0f repl_segments_shipped=%.0f\n",
							g["replica_lag_epochs"], g["replica_last_fetch_unix"], g["repl_segments_shipped"])
					} else {
						fmt.Printf("repl: repl_segments_shipped=%.0f repl_followers=%.0f\n",
							g["repl_segments_shipped"], g["repl_followers"])
					}
				}
			}
		}()

		hs := &http.Server{Addr: *addr, Handler: mux}
		errc := make(chan error, 1)
		go func() { errc <- hs.ListenAndServe() }()
		role := "primary"
		if follower != nil {
			role = "read-only replica of " + *replicateFrom
		}
		fmt.Printf("serving the feedback UI and SQL API on %s as %s (SIGINT/SIGTERM to drain and stop)\n", *addr, role)
		select {
		case err := <-errc:
			return err
		case <-ctx.Done():
		}
		// Restore default signal handling first, so a second SIGINT kills a
		// drain stuck behind a slow client instead of being swallowed; the
		// drain itself is bounded for the same reason.
		stop()
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil {
			hs.Close() // drain deadline hit: drop the stragglers
			return err
		}
		<-errc // http.ErrServerClosed
		fmt.Println("drained in-flight requests; bye")
		return nil

	case "promote":
		// Flip a replica directory writable. With --replicate-from and a
		// reachable primary, a final catch-up runs first; without it, local
		// state is promoted as-is — safe because a follower only ever acks
		// segments it has durably installed and applied, so the local
		// directory always covers everything this replica acknowledged.
		opts := flor.Options{Stdout: os.Stdout, RetainSegments: *retainSegments}
		if *replicateFrom != "" {
			ctx := context.Background()
			f, err := repl.StartFollower(ctx, repl.FollowerConfig{
				PrimaryURL: strings.TrimRight(*replicateFrom, "/"),
				Dir:        *dir,
				ProjID:     *proj,
				Logf:       func(format string, args ...any) { fmt.Printf(format+"\n", args...) },
				Open:       opts,
			})
			if err != nil {
				return err
			}
			defer f.Close()
			if err := f.Promote(ctx); err != nil {
				return err
			}
			fmt.Printf("promoted %s: writable at tstamp %d (replayed through segment %d)\n", *dir, f.Session().Tstamp(), f.Applied())
			return nil
		}
		sess, err := flor.OpenReplica(*dir, *proj, opts)
		if err != nil {
			return err
		}
		defer sess.Close()
		if err := sess.Promote(); err != nil {
			return err
		}
		fmt.Printf("promoted %s: writable at tstamp %d\n", *dir, sess.Tstamp())
		return nil

	case "demo":
		return runDemo(*dir, *proj, *docs, uint64(*seed))

	default:
		return usage()
	}
}

// printSQLResult renders a query result for scripting or humans:
//
//	table  tab-separated columns (the default, unchanged)
//	json   {"columns":[...],"rows":[[...],...]} with typed values
//	csv    RFC-4180 CSV with a header row
func printSQLResult(w io.Writer, res *sqlparse.Result, format string) error {
	switch format {
	case "table", "":
		fmt.Fprintln(w, strings.Join(res.Columns, "\t"))
		for _, r := range res.Rows {
			parts := make([]string, len(r))
			for i, v := range r {
				parts[i] = v.String()
			}
			fmt.Fprintln(w, strings.Join(parts, "\t"))
		}
		return nil
	case "json":
		rows := make([][]any, len(res.Rows))
		for i, r := range res.Rows {
			row := make([]any, len(r))
			for j, v := range r {
				row[j] = v.JSON()
			}
			rows[i] = row
		}
		enc := json.NewEncoder(w)
		return enc.Encode(map[string]any{"columns": res.Columns, "rows": rows})
	case "csv":
		cw := csv.NewWriter(w)
		if err := cw.Write(res.Columns); err != nil {
			return err
		}
		fields := make([]string, 0, len(res.Columns))
		for _, r := range res.Rows {
			fields = fields[:0]
			for _, v := range r {
				if v.IsNull() {
					fields = append(fields, "")
				} else {
					fields = append(fields, v.String())
				}
			}
			if err := cw.Write(fields); err != nil {
				return err
			}
		}
		cw.Flush()
		return cw.Error()
	default:
		return fmt.Errorf("unknown --format %q (want table, json, or csv)", format)
	}
}

// argList collects repeated --arg name=value flags.
type argList struct{ m map[string]string }

func (a *argList) String() string { return fmt.Sprintf("%v", a.m) }

func (a *argList) Set(s string) error {
	if a.m == nil {
		a.m = make(map[string]string)
	}
	i := strings.IndexByte(s, '=')
	if i <= 0 {
		return fmt.Errorf("--arg expects name=value, got %q", s)
	}
	a.m[s[:i]] = s[i+1:]
	return nil
}
