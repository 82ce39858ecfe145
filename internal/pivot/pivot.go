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
	"cmp"
	"fmt"
	"slices"
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
	parent  int64
	path    int // index into Build's paths once resolved; 0 until then
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
//
// It is a grouping sink over the (projid, value_name) index: each visited
// log row maps its (tstamp, filename, ctx_id) to a dense group index, and
// its value lands in that group's slot for the name — the last one logged
// wins. Groups, and the dimension columns of each distinct ctx_id's loop
// path, are numbered in first-seen order; rows come out stable-sorted by
// (tstamp, filename), carved from one backing array.
func Build(tables *record.TablesView, projid string, names []string, opts Options) (*Dataframe, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("pivot: no value names requested")
	}
	for i, n := range names {
		if slices.Contains(names[:i], n) {
			return nil, fmt.Errorf("pivot: duplicate name %q", n)
		}
	}

	// Loop contexts for dimension resolution; the last row of a ctx_id wins.
	loops := make([]loopInfo, 0, tables.Loops.Len())
	loopOf := make(map[int64]int, tables.Loops.Len())
	tables.Loops.Scan(func(_ relation.RowID, r relation.Row) bool {
		if r[0].AsText() != projid {
			return true
		}
		loopOf[r[3].AsInt()] = len(loops)
		loops = append(loops, loopInfo{name: r[5].AsText(), iterVal: iterValText(r[7]), parent: r[4].AsInt()})
		return true
	})

	// A ctx_id's loop path, root first: one (dimension column, value) per
	// level, applied in order, so a loop name repeated along the path keeps
	// its deepest value. paths[0] is the empty path of a ctx_id no loop row
	// names.
	type dimCell struct {
		col int
		val string
	}
	var (
		paths    = [][]dimCell{nil}
		dimCells []dimCell // every path's cells, back to back
		dimCols  []string
		dimOf    = make(map[string]int) // loop name -> dimension column
		walk     []int
	)
	resolve := func(ctxID int64) int {
		li, ok := loopOf[ctxID]
		if !ok || ctxID == 0 {
			return 0
		}
		if p := loops[li].path; p != 0 {
			return p
		}
		walk = walk[:0]
		for id := ctxID; id != 0; {
			i, ok := loopOf[id]
			if !ok {
				break
			}
			walk = append(walk, i)
			id = loops[i].parent
		}
		start := len(dimCells)
		for i := len(walk) - 1; i >= 0; i-- {
			info := &loops[walk[i]]
			col, ok := dimOf[info.name]
			if !ok {
				col = len(dimCols)
				dimOf[info.name] = col
				dimCols = append(dimCols, info.name+"_value")
			}
			dimCells = append(dimCells, dimCell{col, info.iterVal})
		}
		loops[li].path = len(paths)
		paths = append(paths, dimCells[start:len(dimCells):len(dimCells)])
		return loops[li].path
	}

	type groupKey struct {
		tstamp   int64
		filename string
		ctxID    int64
	}
	type group struct {
		groupKey
		path int
	}
	var (
		groups  []group
		groupOf = make(map[groupKey]int)
		slots   []relation.Value // len(names) per group, NULL until logged
		noVals  = make([]relation.Value, len(names))
	)
	for ni, n := range names {
		tables.EachLog(projid, n, func(r relation.Row) {
			k := groupKey{r[1].AsInt(), r[2].AsText(), r[3].AsInt()}
			if opts.Filename != "" && k.filename != opts.Filename || opts.Tstamp > 0 && k.tstamp != opts.Tstamp {
				return
			}
			g, ok := groupOf[k]
			if !ok {
				g = len(groups)
				groupOf[k] = g
				groups = append(groups, group{k, resolve(k.ctxID)})
				slots = append(slots, noVals...)
			}
			v := relation.Null()
			if !r[5].IsNull() {
				v = record.ParseValue(r[5].AsText(), record.ValueType(r[6].AsInt()))
			}
			slots[g*len(names)+ni] = v
		})
	}

	columns := slices.Concat([]string{"projid", "tstamp", "filename"}, dimCols, names)
	order := make([]int, len(groups))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		ga, gb := &groups[a], &groups[b]
		if c := cmp.Compare(ga.tstamp, gb.tstamp); c != 0 {
			return c
		}
		return strings.Compare(ga.filename, gb.filename)
	})
	width, valCol := len(columns), 3+len(dimCols)
	cells := make([]relation.Value, len(groups)*width)
	rows := make([]relation.Row, len(groups))
	proj := relation.Text(projid)
	for i, g := range order {
		row := cells[i*width : (i+1)*width : (i+1)*width]
		grp := &groups[g]
		row[0], row[1], row[2] = proj, relation.Int(grp.tstamp), relation.Text(grp.filename)
		for _, d := range paths[grp.path] {
			row[3+d.col] = relation.Text(d.val)
		}
		copy(row[valCol:], slots[g*len(names):])
		rows[i] = row
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
