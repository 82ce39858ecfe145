package record

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"flordb/internal/relation"
)

func snapTables(t *testing.T) *Tables {
	t.Helper()
	tables, err := CreateTables(relation.NewDatabase())
	if err != nil {
		t.Fatal(err)
	}
	return tables
}

func fillSnapTables(t *testing.T, tables *Tables) {
	t.Helper()
	for i := 0; i < 10; i++ {
		if err := tables.Apply(&LogRecord{
			Kind: KindLog, ProjID: "p", Tstamp: int64(i), Filename: "f.go",
			CtxID: int64(i), ValueName: "acc", Value: "0.5", ValueType: VTFloat,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tables.Apply(&LoopRecord{Kind: KindLoop, ProjID: "p", Tstamp: 1, Filename: "f.go", CtxID: 3, ParentCtxID: 0, LoopName: "epoch", LoopIter: 2, IterValue: "2"}); err != nil {
		t.Fatal(err)
	}
	if err := tables.Apply(&ArgRecord{Kind: KindArg, ProjID: "p", Tstamp: 1, Filename: "f.go", Name: "lr", Value: "0.01"}); err != nil {
		t.Fatal(err)
	}
	if _, err := tables.Ts2vid.Insert(relation.Row{
		relation.Text("p"), relation.Int(2), relation.Int(2), relation.Text("v2"), relation.Null(),
	}); err != nil {
		t.Fatal(err)
	}
	if err := tables.PutBlob("p", 2, "f.go", 3, "ckpt::epoch::2", []byte{0, 1, 2, 0xFF}); err != nil {
		t.Fatal(err)
	}
}

func encodeSnapshot(t *testing.T, meta SnapshotMeta, tables *Tables) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, meta, tables); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSnapshotRoundTrip(t *testing.T) {
	src := snapTables(t)
	fillSnapTables(t, src)
	meta := SnapshotMeta{Version: SnapshotVersion, Seq: 7, MaxTstamp: 9}
	data := encodeSnapshot(t, meta, src)

	dst := snapTables(t)
	got, err := ReadSnapshot(data, dst)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != meta.Version || got.Seq != meta.Seq || got.MaxTstamp != meta.MaxTstamp {
		t.Fatalf("meta = %+v, want %+v", got, meta)
	}
	srcTbls, dstTbls := src.snapshotTables(), dst.snapshotTables()
	for i := range srcTbls {
		a, b := srcTbls[i].Rows(), dstTbls[i].Rows()
		if len(a) != len(b) {
			t.Fatalf("%s: %d rows != %d", srcTbls[i].Name(), len(b), len(a))
		}
		for j := range a {
			for k := range a[j] {
				if relation.Compare(a[j][k], b[j][k]) != 0 || a[j][k].Type() != b[j][k].Type() {
					t.Fatalf("%s row %d col %d: %v != %v", srcTbls[i].Name(), j, k, b[j][k], a[j][k])
				}
			}
		}
	}
	// Indexes were rebuilt during the load.
	ix, ok := dst.Logs.HashIndexOn("projid", "value_name")
	if !ok || len(ix.Lookup(relation.Text("p"), relation.Text("acc"))) != 10 {
		t.Fatal("hash index not rebuilt from snapshot")
	}
	oix, ok := dst.Logs.OrderedIndexOn("tstamp")
	if !ok || len(oix.Range(relation.Int(2), relation.Int(4))) != 3 {
		t.Fatal("ordered index not rebuilt from snapshot")
	}
	blob, found := dst.GetBlobExact("p", "ckpt::epoch::2", 2)
	if !found || !bytes.Equal(blob, []byte{0, 1, 2, 0xFF}) {
		t.Fatalf("blob round-trip: %v %v", blob, found)
	}
}

func TestSnapshotAllValueTypes(t *testing.T) {
	// Exercise every codec tag through a table whose schema admits them.
	db := relation.NewDatabase()
	tbl, err := db.CreateTable("logs", relation.MustSchema(
		relation.Column{Name: "projid", Type: relation.TText},
		relation.Column{Name: "tstamp", Type: relation.TInt},
		relation.Column{Name: "filename", Type: relation.TFloat},
		relation.Column{Name: "ctx_id", Type: relation.TBool},
		relation.Column{Name: "value_name", Type: relation.TTime},
		relation.Column{Name: "value", Type: relation.TBlob},
		relation.Column{Name: "value_type", Type: relation.TInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	now := time.Date(2026, 7, 28, 12, 0, 0, 123456789, time.UTC)
	row := relation.Row{
		relation.Text("téxt\x00bytes"), relation.Int(-42), relation.Float(3.5),
		relation.Bool(true), relation.Time(now), relation.Blob([]byte("blob")), relation.Null(),
	}
	if _, err := tbl.Insert(row); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fake := &Tables{Logs: tbl, Loops: tbl, Ts2vid: tbl, ObjStore: tbl, Args: tbl}
	t.Cleanup(func() {})
	// Serializing the same table five times is fine for codec purposes; the
	// reader side needs distinct empty tables, so decode into clones.
	if err := WriteSnapshot(&buf, SnapshotMeta{Version: SnapshotVersion}, fake); err != nil {
		t.Fatal(err)
	}
	mk := func() *relation.Table {
		tt, err := relation.NewDatabase().CreateTable("logs", tbl.Schema())
		if err != nil {
			t.Fatal(err)
		}
		return tt
	}
	dst := &Tables{Logs: mk(), Loops: mk(), Ts2vid: mk(), ObjStore: mk(), Args: mk()}
	if _, err := ReadSnapshot(buf.Bytes(), dst); err != nil {
		t.Fatal(err)
	}
	got := dst.Logs.Rows()[0]
	for i := range row {
		if got[i].Type() != row[i].Type() {
			t.Fatalf("col %d type %v != %v", i, got[i].Type(), row[i].Type())
		}
		if !row[i].IsNull() && relation.Compare(got[i], row[i]) != 0 {
			t.Fatalf("col %d: %v != %v", i, got[i], row[i])
		}
	}
}

func TestSnapshotCorruptionDetected(t *testing.T) {
	src := snapTables(t)
	fillSnapTables(t, src)
	data := encodeSnapshot(t, SnapshotMeta{Version: SnapshotVersion, Seq: 1}, src)

	for name, mutate := range map[string]func([]byte) []byte{
		"bit flip":       func(d []byte) []byte { d[len(d)/2] ^= 1; return d },
		"truncated":      func(d []byte) []byte { return d[:len(d)-9] },
		"empty":          func(d []byte) []byte { return nil },
		"bad magic":      func(d []byte) []byte { d[0] = 'X'; return d },
		"trailing bytes": func(d []byte) []byte { return append(d, 0) },
	} {
		dst := snapTables(t)
		corrupted := mutate(append([]byte(nil), data...))
		if _, err := ReadSnapshot(corrupted, dst); err == nil {
			t.Fatalf("%s: corruption not detected", name)
		}
		// A rejected snapshot must leave the tables untouched so recovery
		// can fall back cleanly.
		for _, tbl := range dst.snapshotTables() {
			if tbl.Len() != 0 {
				t.Fatalf("%s: table %s dirtied by failed load", name, tbl.Name())
			}
		}
	}
}

func TestSnapshotRejectsFutureVersion(t *testing.T) {
	src := snapTables(t)
	data := encodeSnapshot(t, SnapshotMeta{Version: SnapshotVersion + 1, Seq: 1}, src)
	if _, err := ReadSnapshot(data, snapTables(t)); err == nil {
		t.Fatal("future snapshot version accepted")
	}
}

func binaryUvarint(b []byte) (uint64, int) { return binary.Uvarint(b) }

func TestSnapshotRejectsWrongTypedCells(t *testing.T) {
	// A CRC-valid snapshot whose cells don't match the schema (mis-typed
	// writer) must fail recovery cleanly, not panic later at query time.
	db := relation.NewDatabase()
	badLogs, err := db.CreateTable("logs", relation.MustSchema(
		relation.Column{Name: "projid", Type: relation.TText, NotNull: true},
		relation.Column{Name: "tstamp", Type: relation.TText}, // INTEGER in the real schema
		relation.Column{Name: "filename", Type: relation.TText, NotNull: true},
		relation.Column{Name: "ctx_id", Type: relation.TInt, NotNull: true},
		relation.Column{Name: "value_name", Type: relation.TText, NotNull: true},
		relation.Column{Name: "value", Type: relation.TText},
		relation.Column{Name: "value_type", Type: relation.TInt, NotNull: true},
	))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := badLogs.Insert(relation.Row{
		relation.Text("p"), relation.Text("not-a-tstamp"), relation.Text("f"),
		relation.Int(1), relation.Text("acc"), relation.Text("1"), relation.Int(0),
	}); err != nil {
		t.Fatal(err)
	}
	good := snapTables(t)
	src := &Tables{Logs: badLogs, Loops: good.Loops, Ts2vid: good.Ts2vid, ObjStore: good.ObjStore, Args: good.Args}
	data := encodeSnapshot(t, SnapshotMeta{Version: SnapshotVersion, Seq: 1}, src)
	dst := snapTables(t)
	if _, err := ReadSnapshot(data, dst); err == nil {
		t.Fatal("wrong-typed cell accepted")
	}
	for _, tbl := range dst.snapshotTables() {
		if tbl.Len() != 0 {
			t.Fatalf("table %s dirtied by rejected load", tbl.Name())
		}
	}
}
