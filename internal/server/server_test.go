package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	flor "flordb"
)

func testSession(t *testing.T) *flor.Session {
	t.Helper()
	sess, err := flor.OpenMemory("api", flor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	sess.SetFilename("train.go")
	for it := sess.Loop("epoch", 3); it.Next(); {
		sess.Log("acc", 0.8+0.05*float64(it.Index()))
	}
	if err := sess.Commit("seed"); err != nil {
		t.Fatal(err)
	}
	return sess
}

type sqlResponse struct {
	Epoch    int64    `json:"epoch"`
	Columns  []string `json:"columns"`
	Rows     [][]any  `json:"rows"`
	RowCount int      `json:"row_count"`
	Error    string   `json:"error"`
}

func getJSON(t *testing.T, srv http.Handler, url string) (int, sqlResponse) {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	var resp sqlResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad JSON (%d): %s", rec.Code, rec.Body.String())
	}
	return rec.Code, resp
}

func TestSQLEndpointStreamsRows(t *testing.T) {
	srv := New(testSession(t), Config{})
	code, resp := getJSON(t, srv,
		"/sql?q="+strings.ReplaceAll("SELECT value_name, value FROM logs WHERE value_name = 'acc' ORDER BY value", " ", "+"))
	if code != http.StatusOK {
		t.Fatalf("status = %d: %+v", code, resp)
	}
	if len(resp.Columns) != 2 || resp.RowCount != 3 || len(resp.Rows) != 3 {
		t.Fatalf("shape: %+v", resp)
	}
	if resp.Rows[0][0] != "acc" {
		t.Fatalf("row content: %v", resp.Rows[0])
	}
	if resp.Epoch < 1 {
		t.Fatalf("epoch = %d", resp.Epoch)
	}
}

func TestSQLEndpointPOSTBody(t *testing.T) {
	srv := New(testSession(t), Config{})
	body := strings.NewReader(`{"query": "SELECT count(*) AS n FROM logs"}`)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sql", body))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp sqlResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.RowCount != 1 || resp.Rows[0][0].(float64) != 3 {
		t.Fatalf("count: %+v", resp)
	}
}

func TestSQLEndpointErrors(t *testing.T) {
	srv := New(testSession(t), Config{})
	code, resp := getJSON(t, srv, "/sql?q=SELEKT+nope")
	if code != http.StatusBadRequest || resp.Error == "" {
		t.Fatalf("garbage query: %d %+v", code, resp)
	}
	code, resp = getJSON(t, srv, "/sql")
	if code != http.StatusBadRequest || resp.Error == "" {
		t.Fatalf("missing query: %d %+v", code, resp)
	}
}

func TestExplainEndpoint(t *testing.T) {
	srv := New(testSession(t), Config{})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
		"/explain?q=SELECT+value+FROM+logs+WHERE+projid+%3D+%27api%27+AND+value_name+%3D+%27acc%27", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Plan []string `json:"plan"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Plan) == 0 || !strings.Contains(strings.Join(resp.Plan, "\n"), "IndexLookup") {
		t.Fatalf("plan: %v", resp.Plan)
	}
}

func TestDataframeEndpoint(t *testing.T) {
	srv := New(testSession(t), Config{})
	code, resp := getJSON(t, srv, "/dataframe?names=acc")
	if code != http.StatusOK {
		t.Fatalf("status = %d: %+v", code, resp)
	}
	if resp.RowCount != 3 {
		t.Fatalf("dataframe rows: %+v", resp)
	}
	code, resp = getJSON(t, srv, "/dataframe")
	if code != http.StatusBadRequest {
		t.Fatalf("missing names: %d", code)
	}
}

func TestHealthz(t *testing.T) {
	srv := New(testSession(t), Config{})
	// Serve a few queries first: each handler pins a snapshot view, and
	// every one of them must be released by the time the response is
	// written — the snapshot_pins gauge below is how a leak would show.
	for i := 0; i < 3; i++ {
		if code, _ := getJSON(t, srv, "/sql?q=SELECT+projid+FROM+logs"); code != http.StatusOK {
			t.Fatalf("warmup query status = %d", code)
		}
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var resp map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp["ok"] != true || resp["project"] != "api" {
		t.Fatalf("healthz: %v", resp)
	}
	if pins, ok := resp["snapshot_pins"].(float64); !ok || pins != 0 {
		t.Fatalf("snapshot_pins = %v, want 0 (a leaked request view?)", resp["snapshot_pins"])
	}
}

func TestAdmissionShedsLoadWith429(t *testing.T) {
	srv := New(testSession(t), Config{MaxInFlight: 1, MaxQueue: 1, QueueWait: 50 * time.Millisecond})
	// Occupy the only execution slot and the only queue slot.
	srv.slots <- struct{}{}
	srv.queue <- struct{}{}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/sql?q=SELECT+projid+FROM+logs", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("queue-full status = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
	// Drain the queue but keep the slot: the request should queue, time out,
	// and get 503.
	<-srv.queue
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/sql?q=SELECT+projid+FROM+logs", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("queue-timeout status = %d, want 503", rec.Code)
	}
	// Release the slot: requests flow again.
	<-srv.slots
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/sql?q=SELECT+projid+FROM+logs", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("post-release status = %d: %s", rec.Code, rec.Body.String())
	}
	// Healthz reflects the shed load.
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var resp map[string]any
	json.Unmarshal(rec.Body.Bytes(), &resp)
	if resp["admission_rejections"].(float64) < 2 {
		t.Fatalf("admission_rejections stat: %v", resp)
	}
}

func TestConcurrentQueriesWhileWriterLogs(t *testing.T) {
	sess := testSession(t)
	srv := New(sess, Config{MaxInFlight: 8})
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			sess.Log("noise", i)
			if i%50 == 0 {
				sess.Commit("")
			}
		}
	}()
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 50; i++ {
				code, resp := getJSON(t, srv,
					"/sql?q=SELECT+count%28%2A%29+AS+n+FROM+logs+WHERE+value_name+%3D+%27acc%27")
				if code != http.StatusOK {
					t.Errorf("status = %d: %+v", code, resp)
					return
				}
				if resp.Rows[0][0].(float64) != 3 {
					t.Errorf("inconsistent snapshot count: %v", resp.Rows[0])
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}

func TestServeGracefulShutdown(t *testing.T) {
	sess := testSession(t)
	srv := New(sess, Config{QueueWait: time.Second})
	// Find a free port, then serve on it.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, addr) }()

	// Wait for the listener, then verify it answers.
	var resp *http.Response
	for i := 0; i < 100; i++ {
		resp, err = http.Get(fmt.Sprintf("http://%s/healthz", addr))
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("server never came up: %v", err)
	}
	resp.Body.Close()

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown timed out")
	}
}
