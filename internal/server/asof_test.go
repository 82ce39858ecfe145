package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	flor "flordb"
)

// historySession commits one acc row per epoch, so epoch e holds e rows.
func historySession(t *testing.T, opts flor.Options) *flor.Session {
	t.Helper()
	sess, err := flor.OpenMemory("api-tt", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	sess.SetFilename("train.go")
	for c := 1; c <= 4; c++ {
		sess.Log("acc", 0.1*float64(c))
		if err := sess.Commit(fmt.Sprintf("commit %d", c)); err != nil {
			t.Fatal(err)
		}
	}
	return sess
}

func TestSQLAsOfParam(t *testing.T) {
	srv := New(historySession(t, flor.Options{}), Config{})
	for e := 1; e <= 4; e++ {
		code, resp := getJSON(t, srv,
			fmt.Sprintf("/sql?as_of=%d&q=SELECT+count(*)+AS+n+FROM+logs", e))
		if code != http.StatusOK {
			t.Fatalf("as_of=%d: status %d: %+v", e, code, resp)
		}
		if resp.Epoch != int64(e) {
			t.Fatalf("as_of=%d: response epoch %d", e, resp.Epoch)
		}
		n, _ := resp.Rows[0][0].(float64)
		if int(n) != e {
			t.Fatalf("as_of=%d: count %v, want %d", e, resp.Rows[0][0], e)
		}
	}
}

func TestSQLAsOfRejectsGarbageAndFuture(t *testing.T) {
	srv := New(historySession(t, flor.Options{}), Config{})
	for _, q := range []string{
		"/sql?as_of=banana&q=SELECT+*+FROM+logs",
		"/sql?as_of=99&q=SELECT+*+FROM+logs",
		"/dataframe?as_of=banana&table=logs",
	} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, q, nil))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, rec.Code)
		}
	}
}

// TestClosedSessionAnswers503: a closed session is the server's state, not
// the client's mistake, so every query route answers 503 whether or not the
// request names an epoch.
func TestClosedSessionAnswers503(t *testing.T) {
	sess := historySession(t, flor.Options{})
	srv := New(sess, Config{})
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"/sql?q=SELECT+count(*)+FROM+logs",
		"/sql?as_of=1&q=SELECT+count(*)+FROM+logs",
		"/explain?as_of=1&q=SELECT+count(*)+FROM+logs",
		"/dataframe?as_of=1&names=acc",
	} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, q, nil))
		if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), flor.ErrClosed.Error()) {
			t.Errorf("%s: status %d (%s), want 503 naming the closed session", q, rec.Code, strings.TrimSpace(rec.Body.String()))
		}
	}
}

// TestHealthzReportsRetentionGauges: /healthz carries the version gauge, and
// every logged row version is still held.
func TestHealthzReportsRetentionGauges(t *testing.T) {
	srv := New(historySession(t, flor.Options{}), Config{})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var payload map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatal(err)
	}
	if got, _ := payload["row_versions"].(float64); got < 4 {
		t.Fatalf("row_versions = %v, want all 4 logged rows", payload["row_versions"])
	}
}

// flakyWriter fails the first Write whose payload contains needle, then
// recovers — the shape of a mid-stream socket hiccup after the 200 header.
type flakyWriter struct {
	rec     *httptest.ResponseRecorder
	needle  string
	tripped bool
}

func (f *flakyWriter) Header() http.Header { return f.rec.Header() }
func (f *flakyWriter) WriteHeader(c int)   { f.rec.WriteHeader(c) }
func (f *flakyWriter) Write(p []byte) (int, error) {
	if !f.tripped && bytes.Contains(p, []byte(f.needle)) {
		f.tripped = true
		return 0, errors.New("connection reset by peer")
	}
	return f.rec.Write(p)
}

// TestStreamTruncationSentinel is the silent-truncation regression: when a
// row fails to encode mid-stream, the response must end with an error
// sentinel and unterminated JSON (never a clean-looking prefix), and the
// failure must reach the server log.
func TestStreamTruncationSentinel(t *testing.T) {
	var mu sync.Mutex
	var logged []string
	srv := New(testSession(t), Config{Logf: func(format string, args ...any) {
		mu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})

	w := &flakyWriter{rec: httptest.NewRecorder(), needle: "0.9"}
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet,
		"/sql?q=SELECT+value+FROM+logs+WHERE+value_name+=+'acc'+ORDER+BY+value", nil))

	body := w.rec.Body.String()
	if !strings.Contains(body, "result truncated: 2 of 3 rows sent") {
		t.Fatalf("no truncation sentinel in body: %s", body)
	}
	if strings.Contains(body, "row_count") {
		t.Fatalf("truncated stream still terminated cleanly: %s", body)
	}
	var parsed any
	if err := json.Unmarshal([]byte(body), &parsed); err == nil {
		t.Fatal("truncated body parsed as complete JSON; strict clients would miss the loss")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(logged) != 1 || !strings.Contains(logged[0], "result truncated: 2 of 3 rows sent") {
		t.Fatalf("server log = %q", logged)
	}
}

// TestRetryAfterUnified: both shedding paths (queue-full 429 and staleness
// gate 503) advertise the same configured GateRetryAfter, rounded up.
func TestRetryAfterUnified(t *testing.T) {
	if got := (Config{GateRetryAfter: 1500 * time.Millisecond}).retryAfterSecs(); got != "2" {
		t.Fatalf("retryAfterSecs(1.5s) = %q, want rounded-up \"2\"", got)
	}

	cfg := Config{GateRetryAfter: 7 * time.Second, Gate: func() error {
		return errors.New("replica lag beyond staleness bound")
	}}
	srv := New(testSession(t), cfg)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/sql?q=SELECT+1+AS+x", nil))
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") != "7" {
		t.Fatalf("gate path: status %d Retry-After %q, want 503 / 7", rec.Code, rec.Header().Get("Retry-After"))
	}

	// Queue-full path: saturate the execution and wait queues directly.
	srv2 := New(testSession(t), Config{MaxInFlight: 1, MaxQueue: 1, GateRetryAfter: 7 * time.Second})
	srv2.slots <- struct{}{}
	srv2.queue <- struct{}{}
	rec = httptest.NewRecorder()
	srv2.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/sql?q=SELECT+1+AS+x", nil))
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") != "7" {
		t.Fatalf("busy path: status %d Retry-After %q, want 429 / 7", rec.Code, rec.Header().Get("Retry-After"))
	}
}
