// Package server exposes a FlorDB session over HTTP as a JSON query API —
// the network face of the paper's "shared substrate" role: dashboards,
// feedback UIs, and engineers query the metadata database while training
// runs keep logging into it.
//
// Routes:
//
//	GET/POST /sql        — run a SQL query; results stream as JSON
//	GET/POST /explain    — show the plan the planner chooses
//	GET      /dataframe  — the pivoted flor.dataframe view
//	GET      /healthz    — liveness plus every counter and gauge of /metrics
//	GET      /metrics    — latency histograms + engine counters/gauges
//
// Both are one snapshot of the session's metrics.Registry (Session.Metrics),
// into which every layer registers its own instruments where the state
// lives: relation, storage, sqlparse, the session, internal/repl, and this
// package (route latency histograms, admission counters and gauges).
// /healthz is that snapshot without the histograms.
//
// Every query handler pins a committed-epoch snapshot for the request, so
// responses are internally consistent and never block the writer. Admission
// control in the spirit of ACP bounds the work in flight: at most
// MaxInFlight requests execute concurrently, at most MaxQueue more wait;
// beyond that the server sheds load with 429 instead of collapsing.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"

	flor "flordb"
	"flordb/internal/metrics"
	"flordb/internal/relation"
	"flordb/internal/sqlparse"
)

// Config tunes the API server. Zero values apply the defaults.
type Config struct {
	// MaxInFlight caps concurrently executing queries (default 32).
	MaxInFlight int
	// MaxQueue caps queries waiting for an execution slot; a request
	// arriving with the queue full is rejected with 429 (default 64).
	MaxQueue int
	// QueueWait caps how long a queued request waits for a slot before
	// giving up with 503 (default 5s).
	QueueWait time.Duration
	// Gate, when set, is consulted after a query request wins admission and
	// before it executes. A non-nil error rejects the request with 503 and a
	// Retry-After header of GateRetryAfter — replication uses it to refuse
	// reads on a follower lagging beyond its staleness bound, honoring the
	// contract that bounded-staleness reads degrade to "try again" rather
	// than to silently stale answers. /healthz is never gated.
	Gate func() error
	// GateRetryAfter is the Retry-After duration advertised with Gate
	// rejections (default 1s); round up to whole seconds.
	GateRetryAfter time.Duration
	// Logf receives server-side diagnostics that cannot reach the client —
	// notably mid-stream encode failures after the 200 header is out.
	// Defaults to log.Printf.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 32
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 5 * time.Second
	}
	if c.GateRetryAfter <= 0 {
		c.GateRetryAfter = time.Second
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// retryAfterSecs renders GateRetryAfter for the Retry-After header, rounded
// up to whole seconds. Both shedding paths (queue full, staleness gate) use
// it, so operators tune one knob for client backoff.
func (c Config) retryAfterSecs() string {
	return strconv.FormatInt(int64((c.GateRetryAfter+time.Second-1)/time.Second), 10)
}

// Server serves the SQL-over-HTTP API for one session.
type Server struct {
	sess *flor.Session
	cfg  Config
	mux  *http.ServeMux

	slots chan struct{} // execution slots (MaxInFlight)
	queue chan struct{} // waiting slots (MaxQueue)

	served   *metrics.Counter // queries executed
	rejected *metrics.Counter // 429s + queue timeouts + gate refusals
}

// New builds the API server over a session.
func New(sess *flor.Session, cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := sess.Metrics()
	s := &Server{
		sess:     sess,
		cfg:      cfg,
		mux:      http.NewServeMux(),
		slots:    make(chan struct{}, cfg.MaxInFlight),
		queue:    make(chan struct{}, cfg.MaxQueue),
		served:   reg.Counter("queries_served"),
		rejected: reg.Counter("admission_rejections"),
	}
	reg.IntGauge("in_flight", func() int64 { return int64(len(s.slots)) })
	reg.IntGauge("queued", func() int64 { return int64(len(s.queue)) })
	s.mux.HandleFunc("/sql", s.admitted("sql", s.handleSQL))
	s.mux.HandleFunc("/explain", s.admitted("explain", s.handleExplain))
	s.mux.HandleFunc("/dataframe", s.admitted("dataframe", s.handleDataframe))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// Handle mounts an extra handler on the server's mux — replication mounts
// its /repl/ shipping endpoints here so followers and dashboards share one
// listener.
func (s *Server) Handle(pattern string, h http.Handler) {
	s.mux.Handle(pattern, h)
}

// ServeHTTP implements http.Handler, so the API can be mounted next to other
// handlers (flordb serve mounts it alongside the feedback web UI).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Serve listens on addr until ctx is canceled, then shuts down gracefully:
// no new connections are accepted and in-flight requests get up to the
// queue-wait deadline to finish.
func (s *Server) Serve(ctx context.Context, addr string) error {
	hs := &http.Server{Addr: addr, Handler: s}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), s.cfg.QueueWait)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return err
	}
	<-errc // ListenAndServe's http.ErrServerClosed
	return nil
}

// errBusy marks a load-shedding rejection (429).
var errBusy = errors.New("server: queue full")

// admit reserves an execution slot, queueing briefly when all slots are
// busy. It returns errBusy when the queue itself is full — the bounded
// admission contract — or the context/deadline error when the wait expires.
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	free := func() { <-s.slots }
	select {
	case s.slots <- struct{}{}:
		return free, nil
	default:
	}
	select {
	case s.queue <- struct{}{}:
		defer func() { <-s.queue }()
	default:
		return nil, errBusy
	}
	t := time.NewTimer(s.cfg.QueueWait)
	defer t.Stop()
	select {
	case s.slots <- struct{}{}:
		return free, nil
	case <-t.C:
		return nil, context.DeadlineExceeded
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// admitted wraps a handler with admission control and latency recording:
// each executed request's wall time (admission wait excluded — queueing is
// the admission story, execution time is the query's) lands in the route's
// registry histogram, which /metrics serves live.
func (s *Server) admitted(route string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.sess.Metrics().Histogram(route)
	return func(w http.ResponseWriter, r *http.Request) {
		release, err := s.admit(r.Context())
		if err != nil {
			s.rejected.Inc()
			if errors.Is(err, errBusy) {
				w.Header().Set("Retry-After", s.cfg.retryAfterSecs())
				writeError(w, http.StatusTooManyRequests, "server at capacity, retry later")
				return
			}
			writeError(w, http.StatusServiceUnavailable, "timed out waiting for an execution slot")
			return
		}
		defer release()
		if s.cfg.Gate != nil {
			if gerr := s.cfg.Gate(); gerr != nil {
				s.rejected.Inc()
				w.Header().Set("Retry-After", s.cfg.retryAfterSecs())
				writeError(w, http.StatusServiceUnavailable, gerr.Error())
				return
			}
		}
		s.served.Inc()
		start := time.Now()
		h(w, r)
		hist.Observe(time.Since(start).Nanoseconds())
	}
}

func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// reader pins the snapshot a query handler runs against: the latest committed
// epoch by default, or the historical epoch named by ?as_of=. A malformed or
// not yet committed epoch is a client error, answered with 400.
func (s *Server) reader(w http.ResponseWriter, r *http.Request) (*flor.SnapshotView, bool) {
	raw := r.URL.Query().Get("as_of")
	if raw == "" {
		view, err := s.sess.Reader()
		if err != nil {
			writeError(w, http.StatusServiceUnavailable, err.Error())
			return nil, false
		}
		return view, true
	}
	epoch, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad as_of: "+raw+" (want a commit epoch)")
		return nil, false
	}
	view, err := s.sess.ReaderAt(epoch)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return nil, false
	}
	return view, true
}

// queryParam extracts the SQL text from ?q= or a JSON body {"query": ...}.
func queryParam(r *http.Request) (string, error) {
	if q := r.URL.Query().Get("q"); q != "" {
		return q, nil
	}
	if r.Method == http.MethodPost {
		var body struct {
			Query string `json:"query"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			return "", fmt.Errorf("bad JSON body: %w", err)
		}
		if body.Query != "" {
			return body.Query, nil
		}
	}
	return "", errors.New("missing query: pass ?q= or a JSON body with \"query\"")
}

func (s *Server) handleSQL(w http.ResponseWriter, r *http.Request) {
	q, err := queryParam(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	view, ok := s.reader(w, r)
	if !ok {
		return
	}
	defer view.Close()
	res, err := view.SQL(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.streamResult(w, view.Epoch(), res)
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	q, err := queryParam(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	view, ok := s.reader(w, r)
	if !ok {
		return
	}
	defer view.Close()
	plan, err := view.Explain(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"epoch": view.Epoch(),
		"plan":  strings.Split(plan, "\n"),
	})
}

func (s *Server) handleDataframe(w http.ResponseWriter, r *http.Request) {
	names := splitNonEmpty(r.URL.Query().Get("names"))
	if len(names) == 0 {
		writeError(w, http.StatusBadRequest, "missing ?names=a,b,...")
		return
	}
	var tstamp int64
	if raw := r.URL.Query().Get("tstamp"); raw != "" {
		ts, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad tstamp: "+raw)
			return
		}
		tstamp = ts
	}
	view, ok := s.reader(w, r)
	if !ok {
		return
	}
	defer view.Close()
	df, err := view.DataframeAt(r.URL.Query().Get("filename"), tstamp, names...)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.streamResult(w, view.Epoch(), &sqlparse.Result{Columns: df.Columns, Rows: df.Rows})
}

// handleHealthz serves liveness plus every counter and gauge of the registry
// snapshot /metrics serves — the same names and, within one scrape, the
// same values, without the histograms.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.sess.Metrics().Snapshot()
	payload := map[string]any{"ok": true, "project": s.sess.ProjID}
	for name, v := range snap.Counters {
		payload[name] = v
	}
	for name, v := range snap.Gauges {
		payload[name] = v
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(payload)
}

// handleMetrics serves the registry snapshot: latency histograms (complete
// bucket dumps, so offline tools can merge and re-derive quantiles),
// counters, and gauges. Like /healthz it bypasses admission — observability
// must stay readable exactly when the server is shedding.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.sess.Metrics().Snapshot())
}

// flushEvery is the row interval between streaming flushes.
const flushEvery = 256

// streamResult writes {"epoch":E,"columns":[...],"rows":[[...],...],"row_count":N}
// incrementally: each row is appended into one reused buffer — the bytes
// encoding/json writes for its values, plus a newline — and written with
// one Write, and the connection is flushed every flushEvery rows, so large
// results reach slow clients without buffering the whole payload
// server-side.
func (s *Server) streamResult(w http.ResponseWriter, epoch int64, res *sqlparse.Result) {
	w.Header().Set("Content-Type", "application/json")
	flusher, _ := w.(http.Flusher)

	head, _ := json.Marshal(res.Columns)
	fmt.Fprintf(w, `{"epoch":%d,"columns":%s,"rows":[`, epoch, head)
	var buf []byte
	for i, r := range res.Rows {
		if i > 0 {
			io.WriteString(w, ",")
		}
		var err error
		// The newline after each row is harmless whitespace inside the
		// rows array and keeps huge results line-splittable.
		if buf, err = appendRow(buf[:0], r); err == nil {
			_, err = w.Write(buf)
		}
		if err != nil {
			// The 200 header is already on the wire, so the status code
			// cannot signal failure. Emit a terminal sentinel object into the
			// rows array and leave the JSON unterminated — strict clients
			// fail to parse instead of silently consuming a truncated
			// result — and log server-side (if the client simply went away,
			// the sentinel is lost with the connection; the unterminated
			// framing still marks the payload incomplete).
			msg := fmt.Sprintf("result truncated: %d of %d rows sent: %v", i, len(res.Rows), err)
			s.cfg.Logf("server: %s", msg)
			if sentinel, merr := json.Marshal(map[string]string{"error": msg}); merr == nil {
				fmt.Fprintf(w, ",%s", sentinel)
			}
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
		if flusher != nil && (i+1)%flushEvery == 0 {
			flusher.Flush()
		}
	}
	fmt.Fprintf(w, `],"row_count":%d}`, len(res.Rows))
	if flusher != nil {
		flusher.Flush()
	}
}

// appendRow appends r as a JSON array followed by a newline: the line
// json.Encoder writes for the row's JSON values.
func appendRow(dst []byte, r relation.Row) ([]byte, error) {
	dst = append(dst, '[')
	for j := range r {
		if j > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = r[j].AppendJSON(dst); err != nil {
			return dst, err
		}
	}
	return append(dst, ']', '\n'), nil
}

func splitNonEmpty(csv string) []string {
	var out []string
	for _, part := range strings.Split(csv, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
