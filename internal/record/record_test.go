package record

import (
	"strings"
	"testing"
	"time"

	"flordb/internal/relation"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	recs := []any{
		&LogRecord{Kind: KindLog, ProjID: "p", Tstamp: 3, Filename: "train.flow", CtxID: 7, ValueName: "acc", Value: "0.9", ValueType: VTFloat, Wall: time.Unix(100, 0).UTC()},
		&LoopRecord{Kind: KindLoop, ProjID: "p", Tstamp: 3, Filename: "train.flow", CtxID: 8, ParentCtxID: 7, LoopName: "epoch", LoopIter: 2, IterValue: "2", Wall: time.Unix(101, 0).UTC()},
		&ArgRecord{Kind: KindArg, ProjID: "p", Tstamp: 3, Filename: "train.flow", Name: "lr", Value: "0.001"},
		&CkptRecord{Kind: KindCkpt, ProjID: "p", Tstamp: 3, Filename: "train.flow", CtxID: 8, Name: "model", BlobKey: "k1"},
		&CommitRecord{Kind: KindCommit, ProjID: "p", Tstamp: 4, VID: "v4", Wall: time.Unix(102, 0).UTC()},
	}
	for _, rec := range recs {
		line, err := Encode(rec)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decode(line)
		if err != nil {
			t.Fatalf("decode %s: %v", line, err)
		}
		l2, err := Encode(back)
		if err != nil {
			t.Fatal(err)
		}
		if string(line) != string(l2) {
			t.Fatalf("round trip mismatch:\n%s\n%s", line, l2)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte("not json")); err == nil {
		t.Fatal("garbage must fail")
	}
	if _, err := Decode([]byte(`{"kind":"mystery"}`)); err == nil {
		t.Fatal("unknown kind must fail")
	}
}

func TestFormatValueTypes(t *testing.T) {
	cases := []struct {
		in   any
		want string
		vt   ValueType
	}{
		{"hello", "hello", VTText},
		{42, "42", VTInt},
		{int64(42), "42", VTInt},
		{int32(7), "7", VTInt},
		{3.5, "3.5", VTFloat},
		{float32(2), "2", VTFloat},
		{true, "true", VTBool},
		{false, "false", VTBool},
		{nil, "", VTText},
	}
	for _, c := range cases {
		got, vt := FormatValue(c.in)
		if got != c.want || vt != c.vt {
			t.Fatalf("FormatValue(%v) = %q,%d want %q,%d", c.in, got, vt, c.want, c.vt)
		}
	}
}

func TestFormatValueJSONFallback(t *testing.T) {
	got, vt := FormatValue(map[string]int{"a": 1})
	if got != `{"a":1}` || vt != VTText {
		t.Fatalf("json fallback: %q %d", got, vt)
	}
	got, _ = FormatValue([]string{"x", "y"})
	if got != `["x","y"]` {
		t.Fatalf("slice fallback: %q", got)
	}
}

func TestParseValueRehydration(t *testing.T) {
	if v := ParseValue("42", VTInt); v.Type() != relation.TInt || v.AsInt() != 42 {
		t.Fatalf("int: %v", v)
	}
	if v := ParseValue("2.5", VTFloat); v.Type() != relation.TFloat || v.AsFloat() != 2.5 {
		t.Fatalf("float: %v", v)
	}
	if v := ParseValue("true", VTBool); v.Type() != relation.TBool || !v.AsBool() {
		t.Fatalf("bool: %v", v)
	}
	if v := ParseValue("plain", VTText); v.Type() != relation.TText {
		t.Fatalf("text: %v", v)
	}
	// Corrupt payloads degrade to text rather than erroring.
	if v := ParseValue("xx", VTInt); v.Type() != relation.TText {
		t.Fatalf("corrupt int: %v", v)
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	for _, in := range []any{"s", 7, 2.25, true} {
		s, vt := FormatValue(in)
		v := ParseValue(s, vt)
		switch x := in.(type) {
		case string:
			if v.AsText() != x {
				t.Fatalf("string round trip: %v", v)
			}
		case int:
			if v.AsInt() != int64(x) {
				t.Fatalf("int round trip: %v", v)
			}
		case float64:
			if v.AsFloat() != x {
				t.Fatalf("float round trip: %v", v)
			}
		case bool:
			if v.AsBool() != x {
				t.Fatalf("bool round trip: %v", v)
			}
		}
	}
}

func TestSchemaFigure1(t *testing.T) {
	// The schemas must carry exactly the columns of the paper's Figure 1.
	logs := LogsSchema()
	for _, col := range []string{"projid", "tstamp", "filename", "ctx_id", "value_name", "value", "value_type"} {
		if logs.Index(col) < 0 {
			t.Fatalf("logs missing %q", col)
		}
	}
	loops := LoopsSchema()
	for _, col := range []string{"projid", "tstamp", "filename", "ctx_id", "parent_ctx_id", "loop_name", "loop_iteration", "iteration_value"} {
		if loops.Index(col) < 0 {
			t.Fatalf("loops missing %q", col)
		}
	}
	ts2vid := Ts2vidSchema()
	for _, col := range []string{"projid", "ts_start", "ts_end", "vid", "root_target"} {
		if ts2vid.Index(col) < 0 {
			t.Fatalf("ts2vid missing %q", col)
		}
	}
	objs := ObjStoreSchema()
	for _, col := range []string{"projid", "tstamp", "filename", "ctx_id", "value_name", "contents"} {
		if objs.Index(col) < 0 {
			t.Fatalf("obj_store missing %q", col)
		}
	}
	git := GitSchema()
	for _, col := range []string{"vid", "filename", "parent_vid", "contents"} {
		if git.Index(col) < 0 {
			t.Fatalf("git missing %q", col)
		}
	}
	bd := BuildDepsSchema()
	for _, col := range []string{"vid", "target", "deps", "cmds", "cached"} {
		if bd.Index(col) < 0 {
			t.Fatalf("build_deps missing %q", col)
		}
	}
}

func TestCreateTablesAndApply(t *testing.T) {
	db := relation.NewDatabase()
	tables, err := CreateTables(db)
	if err != nil {
		t.Fatal(err)
	}
	recs := []any{
		&LogRecord{Kind: KindLog, ProjID: "p", Tstamp: 1, Filename: "f", CtxID: 0, ValueName: "acc", Value: "0.9", ValueType: VTFloat},
		&LoopRecord{Kind: KindLoop, ProjID: "p", Tstamp: 1, Filename: "f", CtxID: 1, ParentCtxID: 0, LoopName: "epoch", LoopIter: 0, IterValue: "0"},
		&ArgRecord{Kind: KindArg, ProjID: "p", Tstamp: 1, Filename: "f", Name: "lr", Value: "0.01"},
		&CkptRecord{Kind: KindCkpt, ProjID: "p", Tstamp: 1, Filename: "f", CtxID: 1, Name: "model", BlobKey: "b"},
		&CommitRecord{Kind: KindCommit, ProjID: "p", Tstamp: 2, VID: "v"},
	}
	for _, rec := range recs {
		if err := tables.Apply(rec); err != nil {
			t.Fatalf("apply %T: %v", rec, err)
		}
	}
	if tables.Logs.Len() != 1 || tables.Loops.Len() != 1 || tables.Args.Len() != 1 {
		t.Fatalf("table counts: logs=%d loops=%d args=%d", tables.Logs.Len(), tables.Loops.Len(), tables.Args.Len())
	}
	if err := tables.Apply("not a record"); err == nil {
		t.Fatal("bad record type must fail")
	}
}

func TestGetBlobExact(t *testing.T) {
	db := relation.NewDatabase()
	tables, err := CreateTables(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := tables.PutBlob("p", 1, "f", 0, "model", []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := tables.PutBlob("p", 3, "f", 0, "model", []byte("new")); err != nil {
		t.Fatal(err)
	}
	snap := db.SnapshotLatest()
	view, err := tables.At(snap)
	if err != nil {
		t.Fatal(err)
	}
	for ts, want := range map[int64]string{1: "old", 3: "new"} {
		if b, ok := view.GetBlobExact("p", "model", ts); !ok || string(b) != want {
			t.Fatalf("blob at %d: %q %v, want %q", ts, b, ok, want)
		}
	}
	if _, ok := view.GetBlobExact("p", "model", 2); ok {
		t.Fatal("blob between tstamps must not be found")
	}
	if _, ok := view.GetBlobExact("p", "missing", 1); ok {
		t.Fatal("missing blob must not be found")
	}
}

func TestCreateTablesInstallsDefaultIndexes(t *testing.T) {
	// Regression: the pivot's and the checkpoint-blob lookups' one access
	// path (TablesView.EachLog, GetBlobExact) and the SQL planner's access
	// paths depend on these indexes being live from table creation, not on
	// callers remembering to build them.
	db := relation.NewDatabase()
	tables, err := CreateTables(db)
	if err != nil {
		t.Fatal(err)
	}
	view := func() *TablesView {
		snap := db.SnapshotLatest()
		v, err := tables.At(snap)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	v := view()
	hashIndexes := []struct {
		table *relation.TableSnapshot
		cols  []string
	}{
		{v.Logs, []string{"projid", "value_name"}},
		{v.ObjStore, []string{"projid", "value_name"}},
		{v.Loops, []string{"projid"}},
		{v.Ts2vid, []string{"projid"}},
		{v.Args, []string{"projid", "name"}},
	}
	for _, h := range hashIndexes {
		if _, ok := h.table.HashIndexOn(h.cols...); !ok {
			t.Errorf("table %s: hash index on %v missing", h.table.Name(), h.cols)
		}
	}
	// The indexes are maintained, not just created: inserted rows must be
	// visible through them.
	if err := tables.Apply(&LogRecord{
		Kind: KindLog, ProjID: "p", Tstamp: 1, Filename: "f", CtxID: 0,
		ValueName: "acc", Value: "0.9", ValueType: VTFloat,
	}); err != nil {
		t.Fatal(err)
	}
	ix, _ := view().Logs.HashIndexOn("projid", "value_name")
	if got := len(ix.Lookup(relation.Text("p"), relation.Text("acc"))); got != 1 {
		t.Fatalf("index lookup after Apply: %d ids, want 1", got)
	}
}

// TestTablesAtRefusesIndexlessTables: the pivot and the checkpoint-blob
// lookups have one access path, the (projid, value_name) hash index, so a
// view over tables without it is refused instead of read by a scan.
func TestTablesAtRefusesIndexlessTables(t *testing.T) {
	db := relation.NewDatabase()
	bare, err := NewTables(db)
	if err != nil {
		t.Fatal(err)
	}
	snap := db.SnapshotLatest()
	if _, err := bare.At(snap); err == nil || !strings.Contains(err.Error(), "no hash index") {
		t.Fatalf("logs without the index: err %v, want a refusal", err)
	}
	if _, err := bare.Logs.CreateHashIndex(byNameCols...); err != nil {
		t.Fatal(err)
	}
	snap2 := db.SnapshotLatest()
	if _, err := bare.At(snap2); err == nil || !strings.Contains(err.Error(), `"obj_store"`) {
		t.Fatalf("obj_store without the index: err %v, want a refusal", err)
	}
	if _, err := bare.ObjStore.CreateHashIndex(byNameCols...); err != nil {
		t.Fatal(err)
	}
	snap3 := db.SnapshotLatest()
	if _, err := bare.At(snap3); err != nil {
		t.Fatalf("both indexes present: %v", err)
	}
}
