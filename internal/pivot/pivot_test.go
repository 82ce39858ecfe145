package pivot

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"flordb/internal/record"
	"flordb/internal/relation"
)

// fixture builds tables resembling the Figure 3/5 workloads and pins them
// at the latest epoch:
//   - featurize.flow logs text_src/page_text per (document, page) at ts=1
//   - train.flow logs acc/recall per epoch at ts=1 and ts=2
func fixture(t *testing.T) *record.TablesView {
	t.Helper()
	db := relation.NewDatabase()
	tables, err := record.CreateTables(db)
	if err != nil {
		t.Fatal(err)
	}
	ctx := int64(0)
	loop := func(ts int64, file, name string, iter int64, val string, parent int64) int64 {
		ctx++
		if err := tables.Apply(&record.LoopRecord{
			Kind: record.KindLoop, ProjID: "pdf", Tstamp: ts, Filename: file,
			CtxID: ctx, ParentCtxID: parent, LoopName: name, LoopIter: iter, IterValue: val,
		}); err != nil {
			t.Fatal(err)
		}
		return ctx
	}
	logv := func(ts int64, file string, ctxID int64, name, val string, vt record.ValueType) {
		if err := tables.Apply(&record.LogRecord{
			Kind: record.KindLog, ProjID: "pdf", Tstamp: ts, Filename: file,
			CtxID: ctxID, ValueName: name, Value: val, ValueType: vt,
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Featurization: 2 documents x 2 pages.
	for d := int64(0); d < 2; d++ {
		doc := fmt.Sprintf("doc%d.pdf", d)
		docCtx := loop(1, "featurize.flow", "document", d, doc, 0)
		for p := int64(0); p < 2; p++ {
			pageCtx := loop(1, "featurize.flow", "page", p, strconv.FormatInt(p, 10), docCtx)
			src := "TXT"
			if (d+p)%2 == 1 {
				src = "OCR"
			}
			logv(1, "featurize.flow", pageCtx, "text_src", src, record.VTText)
			logv(1, "featurize.flow", pageCtx, "page_text", fmt.Sprintf("lorem-%s-%d", doc, p), record.VTText)
		}
	}
	// Training: 2 versions x 2 epochs.
	for ts := int64(1); ts <= 2; ts++ {
		for e := int64(0); e < 2; e++ {
			ec := loop(ts, "train.flow", "epoch", e, strconv.FormatInt(e, 10), 0)
			acc := 0.8 + 0.05*float64(e) + 0.02*float64(ts)
			logv(ts, "train.flow", ec, "acc", strconv.FormatFloat(acc, 'g', -1, 64), record.VTFloat)
			logv(ts, "train.flow", ec, "recall", strconv.FormatFloat(acc-0.1, 'g', -1, 64), record.VTFloat)
		}
	}
	snap := db.SnapshotLatest()
	view, err := tables.At(snap)
	if err != nil {
		t.Fatal(err)
	}
	return view
}

func TestPivotFigure3Shape(t *testing.T) {
	tables := fixture(t)
	df, err := Build(tables, "pdf", []string{"text_src", "page_text"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 2 docs x 2 pages = 4 rows.
	if df.Len() != 4 {
		t.Fatalf("rows = %d\n%s", df.Len(), df)
	}
	want := []string{"projid", "tstamp", "filename", "document_value", "page_value", "text_src", "page_text"}
	if len(df.Columns) != len(want) {
		t.Fatalf("columns: %v", df.Columns)
	}
	for i, c := range want {
		if df.Columns[i] != c {
			t.Fatalf("column %d = %s want %s", i, df.Columns[i], c)
		}
	}
	// Every row fully populated.
	for _, r := range df.Rows {
		for i, v := range r {
			if v.IsNull() {
				t.Fatalf("NULL at column %s in %v", df.Columns[i], r)
			}
		}
	}
	// Spot-check one cell.
	di, pi, ti := df.Index("document_value"), df.Index("page_value"), df.Index("text_src")
	found := false
	for _, r := range df.Rows {
		if r[di].AsText() == "doc0.pdf" && r[pi].AsText() == "1" {
			found = true
			if r[ti].AsText() != "OCR" {
				t.Fatalf("text_src = %v", r[ti])
			}
		}
	}
	if !found {
		t.Fatal("row (doc0,1) missing")
	}
}

func TestPivotFigure5MetricsAcrossVersions(t *testing.T) {
	tables := fixture(t)
	df, err := Build(tables, "pdf", []string{"acc", "recall"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 2 versions x 2 epochs.
	if df.Len() != 4 {
		t.Fatalf("rows = %d\n%s", df.Len(), df)
	}
	ai := df.Index("acc")
	ri := df.Index("recall")
	for _, r := range df.Rows {
		if r[ai].Type() != relation.TFloat || r[ri].Type() != relation.TFloat {
			t.Fatalf("metric types: %v %v", r[ai].Type(), r[ri].Type())
		}
		if diff := r[ai].AsFloat() - r[ri].AsFloat() - 0.1; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("acc-recall mismatch: %v", r)
		}
	}
	// Rows sorted by tstamp ascending.
	ti := df.Index("tstamp")
	for i := 1; i < df.Len(); i++ {
		if df.Rows[i][ti].AsInt() < df.Rows[i-1][ti].AsInt() {
			t.Fatal("rows not sorted by tstamp")
		}
	}
}

func TestPivotMixedLevelsYieldNullDims(t *testing.T) {
	tables := fixture(t)
	// text_src lives at page level; acc at epoch level (different file and
	// dims): requesting both gives a union of dimension columns with NULLs.
	df, err := Build(tables, "pdf", []string{"text_src", "acc"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if df.Index("document_value") < 0 || df.Index("epoch_value") < 0 {
		t.Fatalf("dims: %v", df.Columns)
	}
	ei := df.Index("epoch_value")
	di := df.Index("document_value")
	for _, r := range df.Rows {
		hasDoc := !r[di].IsNull()
		hasEpoch := !r[ei].IsNull()
		if hasDoc == hasEpoch {
			t.Fatalf("row should have exactly one dimension family: %v", r)
		}
	}
}

func TestPivotFilenameAndTstampFilters(t *testing.T) {
	tables := fixture(t)
	df, err := Build(tables, "pdf", []string{"acc"}, Options{Filename: "train.flow", Tstamp: 2})
	if err != nil {
		t.Fatal(err)
	}
	if df.Len() != 2 {
		t.Fatalf("rows = %d", df.Len())
	}
	ti := df.Index("tstamp")
	for _, r := range df.Rows {
		if r[ti].AsInt() != 2 {
			t.Fatalf("tstamp filter leaked: %v", r)
		}
	}
}

func TestLatest(t *testing.T) {
	tables := fixture(t)
	df, _ := Build(tables, "pdf", []string{"acc"}, Options{})
	latest := df.Latest()
	if latest.Len() != 2 {
		t.Fatalf("latest rows = %d", latest.Len())
	}
	ti := latest.Index("tstamp")
	for _, r := range latest.Rows {
		if r[ti].AsInt() != 2 {
			t.Fatalf("latest kept old row: %v", r)
		}
	}
	empty := (&Dataframe{Columns: []string{"tstamp"}}).Latest()
	if empty.Len() != 0 {
		t.Fatal("latest of empty should be empty")
	}
}

func TestArgMaxSelectsBestCheckpoint(t *testing.T) {
	tables := fixture(t)
	df, _ := Build(tables, "pdf", []string{"acc", "recall"}, Options{})
	best, err := df.ArgMax("acc")
	if err != nil {
		t.Fatal(err)
	}
	// Best acc = 0.8 + 0.05*1 + 0.02*2 = 0.89 at ts=2, epoch=1.
	if best[df.Index("tstamp")].AsInt() != 2 {
		t.Fatalf("best row: %v", best)
	}
	if best[df.Index("epoch_value")].AsText() != "1" {
		t.Fatalf("best epoch: %v", best)
	}
	if _, err := df.ArgMax("nope"); err == nil {
		t.Fatal("unknown column must error")
	}
}

func TestColumn(t *testing.T) {
	tables := fixture(t)
	df, _ := Build(tables, "pdf", []string{"acc"}, Options{})
	accs, err := df.Column("acc")
	if err != nil {
		t.Fatal(err)
	}
	if len(accs) != df.Len() {
		t.Fatalf("column has %d values for %d rows", len(accs), df.Len())
	}
	for j, r := range df.Rows {
		if relation.Compare(accs[j], r[df.Index("acc")]) != 0 {
			t.Fatalf("value %d: %v, row holds %v", j, accs[j], r[df.Index("acc")])
		}
	}
	if _, err := df.Column("nope"); err == nil {
		t.Fatal("unknown column must error")
	}
}

func TestFilter(t *testing.T) {
	tables := fixture(t)
	df, _ := Build(tables, "pdf", []string{"text_src"}, Options{})
	i := df.Index("text_src")
	ocr := df.Filter(func(r relation.Row) bool { return r[i].AsText() == "OCR" })
	if ocr.Len() != 2 {
		t.Fatalf("OCR rows = %d", ocr.Len())
	}
}

func TestRenderString(t *testing.T) {
	tables := fixture(t)
	df, _ := Build(tables, "pdf", []string{"acc"}, Options{})
	out := df.String()
	if !strings.Contains(out, "epoch_value") || !strings.Contains(out, "train.flow") {
		t.Fatalf("render:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2+df.Len() { // header + separator + rows
		t.Fatalf("render lines = %d", len(lines))
	}
}

func TestToCSV(t *testing.T) {
	df := &Dataframe{
		Columns: []string{"a", "b"},
		Rows: []relation.Row{
			{relation.Text(`with,comma`), relation.Null()},
			{relation.Text(`with"quote`), relation.Int(3)},
		},
	}
	csv := df.ToCSV()
	if !strings.Contains(csv, `"with,comma",`) {
		t.Fatalf("csv:\n%s", csv)
	}
	if !strings.Contains(csv, `"with""quote",3`) {
		t.Fatalf("csv:\n%s", csv)
	}
	if !strings.HasPrefix(csv, "a,b\n") {
		t.Fatalf("csv header:\n%s", csv)
	}
}

func TestBuildErrors(t *testing.T) {
	tables := fixture(t)
	if _, err := Build(tables, "pdf", nil, Options{}); err == nil {
		t.Fatal("no names must error")
	}
	if _, err := Build(tables, "pdf", []string{"a", "a"}, Options{}); err == nil {
		t.Fatal("duplicate names must error")
	}
	df, err := Build(tables, "missing-project", []string{"acc"}, Options{})
	if err != nil || df.Len() != 0 {
		t.Fatalf("missing project: %v %d", err, df.Len())
	}
}

func render(df *Dataframe) string {
	var sb strings.Builder
	sb.WriteString(strings.Join(df.Columns, ","))
	sb.WriteByte('\n')
	for _, r := range df.Rows {
		for i, v := range r {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(v.String())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
