// Package pivot materializes flor.dataframe — the paper's pivoted relational
// view over the logs/loops tables (§2.1, Figures 2, 3 and 5): one column per
// requested value_name, plus the dimension columns projid, tstamp, filename
// and one "<loop>_value" column per enclosing flor.loop level.
//
// Rows are keyed by (tstamp, filename, ctx_id): values logged in the same
// loop iteration land in the same row; values logged at different nesting
// levels produce rows with NULL in the absent dimensions — exactly the
// "pivoted view" shape the paper renders under Figure 3.
package pivot

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"flordb/internal/record"
	"flordb/internal/relation"
)

// Dataframe is the materialized pivot result.
type Dataframe struct {
	Columns []string
	Rows    []relation.Row
}

type loopInfo struct {
	name    string
	iterVal string
	iter    int64
	parent  int64
}

// Options tunes dataframe construction.
type Options struct {
	// Filename restricts the pivot to logs from one file ("" = all files).
	Filename string
	// Tstamp restricts to one version (<=0 = all versions).
	Tstamp int64
}

// Build pivots the requested value names for a project. It reads through a
// TablesView pinned at one epoch, so concurrent writers never disturb it.
func Build(tables *record.TablesView, projid string, names []string, opts Options) (*Dataframe, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("pivot: no value names requested")
	}
	nameSet := make(map[string]bool, len(names))
	for _, n := range names {
		if nameSet[n] {
			return nil, fmt.Errorf("pivot: duplicate name %q", n)
		}
		nameSet[n] = true
	}

	// Loop contexts for dimension resolution.
	ctxs := make(map[int64]loopInfo)
	tables.Loops.Scan(func(_ relation.RowID, r relation.Row) bool {
		if r[0].AsText() != projid {
			return true
		}
		ctxs[r[3].AsInt()] = loopInfo{
			name:    r[5].AsText(),
			iter:    r[6].AsInt(),
			iterVal: iterValText(r[7]),
			parent:  r[4].AsInt(),
		}
		return true
	})

	type rowAgg struct {
		tstamp   int64
		filename string
		ctxID    int64
		dims     map[string]string // dim column -> value
		dimOrder []string
		vals     map[string]relation.Value
		seq      int
	}
	aggs := make(map[string]*rowAgg)
	var order []string
	var keyBuf []byte // reused per visit; row keys are (tstamp, filename, ctx_id)
	seq := 0

	visit := func(r relation.Row) {
		tstamp := r[1].AsInt()
		filename := r[2].AsText()
		ctxID := r[3].AsInt()
		vname := r[4].AsText()
		if opts.Filename != "" && filename != opts.Filename {
			return
		}
		if opts.Tstamp > 0 && tstamp != opts.Tstamp {
			return
		}
		keyBuf = strconv.AppendInt(keyBuf[:0], tstamp, 10)
		keyBuf = append(keyBuf, '\x1f')
		keyBuf = append(keyBuf, filename...)
		keyBuf = append(keyBuf, '\x1f')
		keyBuf = strconv.AppendInt(keyBuf, ctxID, 10)
		agg, ok := aggs[string(keyBuf)]
		if !ok {
			key := string(keyBuf)
			agg = &rowAgg{
				tstamp: tstamp, filename: filename, ctxID: ctxID,
				dims: make(map[string]string), vals: make(map[string]relation.Value), seq: seq,
			}
			seq++
			// Resolve the loop path root -> ctx.
			var path []loopInfo
			for id := ctxID; id != 0; {
				info, ok := ctxs[id]
				if !ok {
					break
				}
				path = append(path, info)
				id = info.parent
			}
			for i := len(path) - 1; i >= 0; i-- {
				col := path[i].name + "_value"
				agg.dims[col] = path[i].iterVal
				agg.dimOrder = append(agg.dimOrder, col)
			}
			aggs[key] = agg
			order = append(order, key)
		}
		var valText string
		if r[5].IsNull() {
			agg.vals[vname] = relation.Null()
		} else {
			valText = r[5].AsText()
			agg.vals[vname] = record.ParseValue(valText, record.ValueType(r[6].AsInt()))
		}
	}

	for _, n := range names {
		tables.EachLog(projid, n, visit)
	}

	// Global dimension column order: first-seen path order across rows.
	var dimCols []string
	seenDim := map[string]bool{}
	for _, key := range order {
		for _, col := range aggs[key].dimOrder {
			if !seenDim[col] {
				seenDim[col] = true
				dimCols = append(dimCols, col)
			}
		}
	}

	columns := append([]string{"projid", "tstamp", "filename"}, dimCols...)
	columns = append(columns, names...)

	rows := make([]relation.Row, 0, len(aggs))
	keys := append([]string(nil), order...)
	sort.SliceStable(keys, func(a, b int) bool {
		ra, rb := aggs[keys[a]], aggs[keys[b]]
		if ra.tstamp != rb.tstamp {
			return ra.tstamp < rb.tstamp
		}
		if ra.filename != rb.filename {
			return ra.filename < rb.filename
		}
		return ra.seq < rb.seq
	})
	for _, key := range keys {
		agg := aggs[key]
		row := make(relation.Row, 0, len(columns))
		row = append(row, relation.Text(projid), relation.Int(agg.tstamp), relation.Text(agg.filename))
		for _, col := range dimCols {
			if v, ok := agg.dims[col]; ok {
				row = append(row, relation.Text(v))
			} else {
				row = append(row, relation.Null())
			}
		}
		for _, n := range names {
			if v, ok := agg.vals[n]; ok {
				row = append(row, v)
			} else {
				row = append(row, relation.Null())
			}
		}
		rows = append(rows, row)
	}
	return &Dataframe{Columns: columns, Rows: rows}, nil
}

func iterValText(v relation.Value) string {
	if v.IsNull() {
		return ""
	}
	return v.AsText()
}

// Index returns the position of a column, or -1.
func (df *Dataframe) Index(col string) int {
	for i, c := range df.Columns {
		if strings.EqualFold(c, col) {
			return i
		}
	}
	return -1
}

// Len returns the number of rows.
func (df *Dataframe) Len() int { return len(df.Rows) }

// Latest returns the subset of rows carrying the maximum tstamp — the
// paper's flor.utils.latest (Figure 6).
func (df *Dataframe) Latest() *Dataframe {
	ti := df.Index("tstamp")
	if ti < 0 || len(df.Rows) == 0 {
		return &Dataframe{Columns: df.Columns}
	}
	var maxTs int64 = -1 << 62
	for _, r := range df.Rows {
		if ts := r[ti].AsInt(); ts > maxTs {
			maxTs = ts
		}
	}
	out := &Dataframe{Columns: df.Columns}
	for _, r := range df.Rows {
		if r[ti].AsInt() == maxTs {
			out.Rows = append(out.Rows, r)
		}
	}
	return out
}

// Filter keeps rows for which pred returns true.
func (df *Dataframe) Filter(pred func(relation.Row) bool) *Dataframe {
	out := &Dataframe{Columns: df.Columns}
	for _, r := range df.Rows {
		if pred(r) {
			out.Rows = append(out.Rows, r)
		}
	}
	return out
}

// ArgMax returns the row with the maximum value in the given column —
// the paper's "select the best-performing model checkpoint" query (§4.2).
func (df *Dataframe) ArgMax(col string) (relation.Row, error) {
	i := df.Index(col)
	if i < 0 {
		return nil, fmt.Errorf("pivot: no column %q", col)
	}
	var best relation.Row
	for _, r := range df.Rows {
		if r[i].IsNull() {
			continue
		}
		if best == nil || relation.Compare(r[i], best[i]) > 0 {
			best = r
		}
	}
	if best == nil {
		return nil, fmt.Errorf("pivot: no non-NULL values in %q", col)
	}
	return best, nil
}

// Column extracts a column as a slice.
func (df *Dataframe) Column(col string) ([]relation.Value, error) {
	i := df.Index(col)
	if i < 0 {
		return nil, fmt.Errorf("pivot: no column %q", col)
	}
	out := make([]relation.Value, len(df.Rows))
	for j, r := range df.Rows {
		out[j] = r[i]
	}
	return out, nil
}
