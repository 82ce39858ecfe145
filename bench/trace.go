package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Start and End are nanoseconds since
// the tracer was made; Parent indexes the enclosing span of the same track
// (-1 for a root); Op is the measured op the span belongs to (-1 for set-up
// and probe spans).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
}

// track records the spans of one goroutine, in memory. A nil track, or one
// switched off, records nothing, so the untraced run pays only a nil check.
type track struct {
	Name  string `json:"track"`
	Spans []span `json:"spans"`

	t0    time.Time
	stack []int32
	on    bool
	op    int32
}

type tracer struct {
	t0     time.Time
	tracks []*track
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// track adds a track; call it before the goroutine that uses it starts. A nil
// tracer gives a nil track.
func (t *tracer) track(name string) *track {
	if t == nil {
		return nil
	}
	tr := &track{Name: name, t0: t.t0, op: -1, on: true}
	t.tracks = append(t.tracks, tr)
	return tr
}

func (t *track) setOp(op int, on bool) {
	if t != nil {
		t.op, t.on = int32(op), on
	}
}

func (t *track) begin(name string) int32 {
	if t == nil || !t.on {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.Spans))
	t.Spans = append(t.Spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Op: t.op})
	t.stack = append(t.stack, id)
	return id
}

func (t *track) end(id int32) {
	if id < 0 {
		return
	}
	t.Spans[id].End = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	name     string
	count    int
	totalMs  float64
	selfMs   float64
	maxMs    float64
	measured bool // from measured ops, not from the probe
}

func (s spanStat) meanMs() float64 { return s.totalMs / float64(s.count) }

// stats aggregates spans by name. Where a name occurs both in measured ops
// and in the probe, only the measured spans count: the probe stands in for
// calls the workload's own op never makes. Self time is a span's duration
// minus the durations of its direct children.
func (t *tracer) stats() map[string]*spanStat {
	out := map[string]*spanStat{}
	if t == nil {
		return out
	}
	for _, tr := range t.tracks {
		child := make([]int64, len(tr.Spans))
		for _, s := range tr.Spans {
			if s.Parent >= 0 {
				child[s.Parent] += s.End - s.Start
			}
		}
		for i, s := range tr.Spans {
			measured := s.Op >= 0
			st := out[s.Name]
			if st == nil || (measured && !st.measured) {
				st = &spanStat{name: s.Name, measured: measured}
				out[s.Name] = st
			} else if st.measured && !measured {
				continue
			}
			d := float64(s.End-s.Start) / 1e6
			st.count++
			st.totalMs += d
			st.selfMs += float64(s.End-s.Start-child[i]) / 1e6
			st.maxMs = max(st.maxMs, d)
		}
	}
	return out
}

// writeJSON writes every track and span for offline reading.
func (t *tracer) writeJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.tracks); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report prints the span table: per name the call count, mean, self time and
// its share of the measured op time, then the three names with most self time.
func (t *tracer) report(w io.Writer, opMs float64) {
	stats := t.stats()
	rows := make([]*spanStat, 0, len(stats))
	for _, s := range stats {
		rows = append(rows, s)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	fmt.Fprintf(w, "  %-22s %8s %12s %12s %8s  %s\n", "span", "calls", "mean_ms", "self_ms", "share", "from")
	for _, s := range rows {
		from, share := "probe", "-"
		if s.measured {
			from = "ops"
			share = fmt.Sprintf("%.1f%%", 100*s.selfMs/opMs)
		}
		fmt.Fprintf(w, "  %-22s %8d %12.4f %12.2f %8s  %s\n", s.name, s.count, s.meanMs(), s.selfMs, share, from)
	}
	var top []*spanStat
	for _, s := range rows {
		if s.measured && s.name != "op" {
			top = append(top, s)
		}
	}
	sort.Slice(top, func(i, j int) bool { return top[i].selfMs > top[j].selfMs })
	fmt.Fprint(w, "  top self time:")
	for i := 0; i < len(top) && i < 3; i++ {
		fmt.Fprintf(w, " %s %.1f%%", top[i].name, 100*top[i].selfMs/opMs)
	}
	fmt.Fprintln(w)
}
