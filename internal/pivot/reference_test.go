package pivot

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"flordb/internal/record"
	"flordb/internal/relation"
)

// refLoopInfo and referenceBuild are the map-per-row pivot that Build
// replaced, kept verbatim as the property's oracle.
type refLoopInfo struct {
	name    string
	iterVal string
	iter    int64
	parent  int64
}

func referenceBuild(tables *record.TablesView, projid string, names []string, opts Options) (*Dataframe, error) {
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
	ctxs := make(map[int64]refLoopInfo)
	tables.Loops.Scan(func(_ relation.RowID, r relation.Row) bool {
		if r[0].AsText() != projid {
			return true
		}
		ctxs[r[3].AsInt()] = refLoopInfo{
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
			var path []refLoopInfo
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

// pivotCase is one generated project: logs and loops tables holding the
// target project "p" beside another project "q", and one Build request.
type pivotCase struct {
	snap   *relation.Snapshot
	tables *record.TablesView
	names  []string
	opts   Options
}

var (
	genLoopNames  = []string{"epoch", "step", "doc", "page"}
	genValueNames = []string{"acc", "loss", "lr", "note", "flag"}
	genFiles      = []string{"train.py", "eval.py"}
)

// genValue draws a logged value's text and type over all four value types,
// including texts ParseValue keeps as TEXT and the float specials.
func genValue(rng *rand.Rand) (string, record.ValueType) {
	vt := record.ValueType(rng.Intn(4))
	switch vt {
	case record.VTInt:
		return []string{"0", "-7", "42", "9223372036854775807", "4.5", "x"}[rng.Intn(6)], vt
	case record.VTFloat:
		return []string{"0.5", "-0", "1e-7", "1e21", "NaN", "+Inf", "3", "nope"}[rng.Intn(8)], vt
	case record.VTBool:
		return []string{"true", "false", "maybe"}[rng.Intn(3)], vt
	default:
		return []string{"", "a<b>&c", "ünï", "line\nbreak", "\xff"}[rng.Intn(5)], vt
	}
}

// genPivotCase builds a case from rng. Each (project, tstamp, file) run has
// a forest of loops: nested and sibling levels, loop names drawn from a pool
// small enough to repeat inside one path, some NULL iteration values, some
// parents that name no loop row and a few ctx_ids with two loop rows. The
// two projects number their loop contexts from the same ctx_ids. Values are
// logged at top level and in loop contexts, some NULL, some logged twice
// under one (tstamp, ctx, name), and at times one under a ctx_id that only
// the other project's loops use.
func genPivotCase(rng *rand.Rand) pivotCase {
	db := relation.NewDatabase()
	tables, err := record.CreateTables(db)
	if err != nil {
		panic(err)
	}
	insert := func(t *relation.Table, r relation.Row) {
		if _, err := t.Insert(r); err != nil {
			panic(err)
		}
	}
	ctx := int64(0)
	logAt := func(proj string, ts int64, file string, ctxID int64) {
		for n := rng.Intn(3); n >= 0; n-- {
			name := genValueNames[rng.Intn(len(genValueNames))]
			text, vt := genValue(rng)
			val := relation.Text(text)
			if rng.Intn(8) == 0 {
				val = relation.Null()
			}
			row := relation.Row{relation.Text(proj), relation.Int(ts), relation.Text(file),
				relation.Int(ctxID), relation.Text(name), val, relation.Int(int64(vt))}
			insert(tables.Logs, row)
			if rng.Intn(6) == 0 {
				text, vt = genValue(rng)
				row[5], row[6] = relation.Text(text), relation.Int(int64(vt))
				insert(tables.Logs, row)
			}
		}
	}
	var loopLevel func(proj string, ts int64, file string, parent int64, depth int)
	loopLevel = func(proj string, ts int64, file string, parent int64, depth int) {
		name := genLoopNames[rng.Intn(len(genLoopNames))]
		iters := int64(1 + rng.Intn(3))
		for iter := int64(0); iter < iters; iter++ {
			ctx++
			id, p := ctx, parent
			if rng.Intn(12) == 0 {
				p = -1 - int64(rng.Intn(50)) // dangling: no loop row has this ctx_id
			}
			iv := relation.Text(strconv.FormatInt(iter, 10))
			if rng.Intn(10) == 0 {
				iv = relation.Null()
			}
			row := relation.Row{relation.Text(proj), relation.Int(ts), relation.Text(file),
				relation.Int(id), relation.Int(p), relation.Text(name), relation.Int(iter), iv}
			insert(tables.Loops, row)
			if rng.Intn(15) == 0 { // the ctx_id again, under another loop name and value
				row[5], row[7] = relation.Text(genLoopNames[rng.Intn(len(genLoopNames))]), relation.Text("again")
				insert(tables.Loops, row)
			}
			logAt(proj, ts, file, id)
			if depth < 3 && rng.Intn(2) == 0 {
				loopLevel(proj, ts, file, id, depth+1)
			}
		}
		if depth > 0 && rng.Intn(3) == 0 { // a sibling loop under the same parent
			loopLevel(proj, ts, file, parent, depth)
		}
	}
	maxCtx := map[string]int64{}
	for _, proj := range []string{"q", "p"} {
		ctx = 0 // the two projects use the same ctx_ids
		versions := int64(1 + rng.Intn(3))
		for ts := int64(1); ts <= versions; ts++ {
			for _, file := range genFiles[:1+rng.Intn(len(genFiles))] {
				logAt(proj, ts, file, 0)
				if rng.Intn(4) > 0 {
					loopLevel(proj, ts, file, 0, 0)
				}
			}
		}
		maxCtx[proj] = ctx
	}
	if qOnly := maxCtx["q"] - maxCtx["p"]; qOnly > 0 {
		logAt("p", 1, genFiles[0], maxCtx["p"]+1+rng.Int63n(qOnly)) // a ctx_id only "q"'s loops use
	}
	c := pivotCase{snap: db.SnapshotLatest()}
	if c.tables, err = tables.At(c.snap); err != nil {
		panic(err)
	}
	for _, i := range rng.Perm(len(genValueNames))[:rng.Intn(len(genValueNames)+1)] {
		c.names = append(c.names, genValueNames[i])
	}
	if len(c.names) > 0 && rng.Intn(10) == 0 {
		c.names = append(c.names, c.names[rng.Intn(len(c.names))])
	}
	if rng.Intn(3) == 0 {
		c.opts.Filename = genFiles[rng.Intn(len(genFiles))]
	}
	if rng.Intn(3) == 0 {
		c.opts.Tstamp = int64(rng.Intn(4))
	}
	return c
}

// checkPivotCase requires Build and referenceBuild to agree: the same error,
// or the same columns and rows with every cell of the same type and value.
func checkPivotCase(t *testing.T, c pivotCase) {
	t.Helper()
	defer c.snap.Release()
	got, gerr := Build(c.tables, "p", c.names, c.opts)
	want, werr := referenceBuild(c.tables, "p", c.names, c.opts)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("names %q %+v: error %v, reference %v", c.names, c.opts, gerr, werr)
	}
	if werr != nil {
		return
	}
	if fmt.Sprint(got.Columns) != fmt.Sprint(want.Columns) || len(got.Rows) != len(want.Rows) {
		t.Fatalf("names %q %+v: got %v with %d rows, reference %v with %d rows",
			c.names, c.opts, got.Columns, len(got.Rows), want.Columns, len(want.Rows))
	}
	for i := range want.Rows {
		if len(got.Rows[i]) != len(want.Rows[i]) {
			t.Fatalf("row %d: %d cells, reference %d", i, len(got.Rows[i]), len(want.Rows[i]))
		}
		for j, w := range want.Rows[i] {
			if g := got.Rows[i][j]; g.Type() != w.Type() || g.String() != w.String() {
				t.Fatalf("row %d column %s: %s %v, reference %s %v\ngot:\n%s\nreference:\n%s",
					i, want.Columns[j], g.Type(), g, w.Type(), w, got, want)
			}
		}
	}
}

// TestPivotMatchesReferenceProperty compares Build with the map-per-row
// pivot it replaced over generated projects.
func TestPivotMatchesReferenceProperty(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		checkPivotCase(t, genPivotCase(rand.New(rand.NewSource(seed))))
	}
}

// FuzzPivotMatchesReference feeds fuzz bytes to the property's generator as
// its seed.
func FuzzPivotMatchesReference(f *testing.F) {
	for _, s := range []string{"", "pivot", "loops", "dangling"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h := fnv.New64a()
		h.Write(data)
		checkPivotCase(t, genPivotCase(rand.New(rand.NewSource(int64(h.Sum64())))))
	})
}
