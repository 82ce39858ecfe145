package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"flordb/internal/relation"
	"flordb/internal/sqlparse"
)

// referenceStreamResult is the streamResult that boxed every cell through
// Value.JSON and encoding/json, kept verbatim as the oracle of
// TestStreamResultMatchesReference.
func referenceStreamResult(s *Server, w http.ResponseWriter, epoch int64, res *sqlparse.Result) {
	w.Header().Set("Content-Type", "application/json")
	flusher, _ := w.(http.Flusher)

	head, _ := json.Marshal(res.Columns)
	fmt.Fprintf(w, `{"epoch":%d,"columns":%s,"rows":[`, epoch, head)
	enc := json.NewEncoder(w)
	row := make([]any, 0, 8)
	for i, r := range res.Rows {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		row = row[:0]
		for _, v := range r {
			row = append(row, v.JSON())
		}
		if err := enc.Encode(row); err != nil {
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

// tapeWriter records what a handler does to the connection: every Write
// and Flush in order, the body, and the log lines. Its failAt'th Write
// fails — once, or with sticky set, from then on.
type tapeWriter struct {
	rec    *httptest.ResponseRecorder
	tape   []string
	writes int
	failAt int
	sticky bool
}

func (w *tapeWriter) Header() http.Header { return w.rec.Header() }
func (w *tapeWriter) WriteHeader(c int)   { w.rec.WriteHeader(c) }
func (w *tapeWriter) Flush()              { w.tape = append(w.tape, "flush") }
func (w *tapeWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes == w.failAt || w.sticky && w.failAt > 0 && w.writes > w.failAt {
		w.tape = append(w.tape, fmt.Sprintf("fail %q", p))
		return 0, errors.New("connection reset by peer")
	}
	w.tape = append(w.tape, fmt.Sprintf("write %q", p))
	return w.rec.Write(p)
}

// randomCell draws a value of any type, rarely a float JSON refuses.
func randomCell(rng *rand.Rand) relation.Value {
	switch rng.Intn(8) {
	case 1:
		return relation.Text([]string{"", "acc", "<b>&amp;", "\x00\t\"\\", "\xff\xfe", "a b", "日本"}[rng.Intn(7)])
	case 2:
		return relation.Int(rng.Int63() - rng.Int63())
	case 3:
		return relation.Float([]float64{0, math.Copysign(0, -1), 1e-7, 1e21, rng.NormFloat64(), rng.ExpFloat64() * 1e-9}[rng.Intn(6)])
	case 4:
		return relation.Bool(rng.Intn(2) == 0)
	case 5:
		return relation.Time(time.Unix(0, rng.Int63n(1<<62)-1<<61))
	case 6:
		if rng.Intn(3) == 0 {
			return relation.Blob(nil)
		}
		b := make([]byte, rng.Intn(9))
		rng.Read(b)
		return relation.Blob(b)
	case 7:
		if rng.Intn(200) == 0 {
			return relation.Float([]float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)])
		}
	}
	return relation.Null()
}

// TestStreamResultMatchesReference runs random results through
// streamResult and through the encoding/json version it replaced: the
// writes, flushes, bodies and log lines must be identical, including a cell
// json refuses mid-stream and a connection that fails at a random write.
func TestStreamResultMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for c := 0; c < 200; c++ {
		res := &sqlparse.Result{}
		for j := rng.Intn(5); j > 0; j-- {
			res.Columns = append(res.Columns, []string{"projid", "value", "<x>", "tstamp"}[rng.Intn(4)])
		}
		nrows := rng.Intn(600)
		for i := 0; i < nrows; i++ {
			row := make(relation.Row, len(res.Columns))
			for j := range row {
				row[j] = randomCell(rng)
			}
			res.Rows = append(res.Rows, row)
		}
		if len(res.Columns) > 0 && nrows > 0 && rng.Intn(4) == 0 {
			res.Rows[rng.Intn(nrows)][rng.Intn(len(res.Columns))] = relation.Float(math.NaN())
		}
		failAt, sticky := 0, rng.Intn(2) == 0
		if rng.Intn(3) == 0 {
			failAt = 1 + rng.Intn(2*nrows+2)
		}
		run := func(stream func(*Server, http.ResponseWriter)) (*tapeWriter, []string) {
			var logged []string
			s := &Server{cfg: Config{Logf: func(format string, args ...any) {
				logged = append(logged, fmt.Sprintf(format, args...))
			}}}
			w := &tapeWriter{rec: httptest.NewRecorder(), failAt: failAt, sticky: sticky}
			stream(s, w)
			return w, logged
		}
		got, gotLog := run(func(s *Server, w http.ResponseWriter) { s.streamResult(w, 7, res) })
		want, wantLog := run(func(s *Server, w http.ResponseWriter) { referenceStreamResult(s, w, 7, res) })
		if got.rec.Body.String() != want.rec.Body.String() {
			t.Fatalf("case %d: body\n%s\nreference\n%s", c, got.rec.Body, want.rec.Body)
		}
		if fmt.Sprint(got.tape) != fmt.Sprint(want.tape) {
			t.Fatalf("case %d: writes and flushes\n%q\nreference\n%q", c, got.tape, want.tape)
		}
		if fmt.Sprint(gotLog) != fmt.Sprint(wantLog) {
			t.Fatalf("case %d: log %q, reference %q", c, gotLog, wantLog)
		}
		if got.rec.Header().Get("Content-Type") != want.rec.Header().Get("Content-Type") {
			t.Fatalf("case %d: content type %q", c, got.rec.Header().Get("Content-Type"))
		}
	}
}
