package sqlparse

import (
	"fmt"
	"strings"
	"testing"

	"flordb/internal/relation"
)

// latest pins db at its in-flight write epoch for the rest of the test: the
// read-your-writes view a recording session queries through.
func latest(t testing.TB, db *relation.Database) *relation.Snapshot {
	snap := db.SnapshotLatest()
	t.Cleanup(snap.Release)
	return snap
}

func testDB(t *testing.T) *relation.Database {
	t.Helper()
	db := relation.NewDatabase()
	logs, err := db.CreateTable("logs", relation.MustSchema(
		relation.Column{Name: "projid", Type: relation.TText},
		relation.Column{Name: "tstamp", Type: relation.TInt},
		relation.Column{Name: "filename", Type: relation.TText},
		relation.Column{Name: "value_name", Type: relation.TText},
		relation.Column{Name: "value", Type: relation.TText},
	))
	if err != nil {
		t.Fatal(err)
	}
	rows := []relation.Row{
		{relation.Text("pdf"), relation.Int(1), relation.Text("train.py"), relation.Text("acc"), relation.Text("0.80")},
		{relation.Text("pdf"), relation.Int(1), relation.Text("train.py"), relation.Text("recall"), relation.Text("0.70")},
		{relation.Text("pdf"), relation.Int(2), relation.Text("train.py"), relation.Text("acc"), relation.Text("0.85")},
		{relation.Text("pdf"), relation.Int(2), relation.Text("train.py"), relation.Text("recall"), relation.Text("0.75")},
		{relation.Text("pdf"), relation.Int(3), relation.Text("train.py"), relation.Text("acc"), relation.Text("0.90")},
		{relation.Text("pdf"), relation.Int(3), relation.Text("infer.py"), relation.Text("pred"), relation.Text("cat")},
		{relation.Text("other"), relation.Int(1), relation.Text("x.py"), relation.Text("acc"), relation.Text("0.10")},
	}
	for _, r := range rows {
		if _, err := logs.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	runs, err := db.CreateTable("runs", relation.MustSchema(
		relation.Column{Name: "tstamp", Type: relation.TInt},
		relation.Column{Name: "vid", Type: relation.TText},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 3; i++ {
		if _, err := runs.Insert(relation.Row{relation.Int(i), relation.Text(fmt.Sprintf("v%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func mustRun(t *testing.T, db *relation.Database, q string) *Result {
	t.Helper()
	res, err := Run(latest(t, db), q)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	return res
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex("SELECT a, 'it''s' FROM t WHERE x >= 1.5e2 -- comment\n")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
	}
	if toks[0].Text != "SELECT" || toks[0].Kind != TokKeyword {
		t.Fatalf("first token: %+v", toks[0])
	}
	if toks[3].Kind != TokString || toks[3].Text != "it's" {
		t.Fatalf("string token: %+v", toks[3])
	}
	if toks[len(toks)-1].Kind != TokEOF {
		t.Fatalf("missing EOF: %v", kinds)
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex("'unterminated"); err == nil {
		t.Fatal("unterminated string must fail")
	}
	if _, err := Lex("a @ b"); err == nil {
		t.Fatal("bad char must fail")
	}
	if _, err := Lex(`"unterminated`); err == nil {
		t.Fatal("unterminated quoted ident must fail")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t LIMIT x",
		"SELECT a FROM t GROUP",
		"SELECT a FROM t trailing garbage here (",
		"SELECT a b c FROM t",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Fatalf("expected parse error for %q", q)
		}
	}
}

func TestSelectStar(t *testing.T) {
	res := mustRun(t, testDB(t), "SELECT * FROM logs")
	if len(res.Rows) != 7 || len(res.Columns) != 5 {
		t.Fatalf("rows=%d cols=%v", len(res.Rows), res.Columns)
	}
}

func TestWhereEquality(t *testing.T) {
	res := mustRun(t, testDB(t), "SELECT value FROM logs WHERE value_name = 'acc' AND projid = 'pdf'")
	if len(res.Rows) != 3 {
		t.Fatalf("rows=%d", len(res.Rows))
	}
}

func TestWhereComparisonAndArithmetic(t *testing.T) {
	res := mustRun(t, testDB(t), "SELECT tstamp FROM logs WHERE tstamp + 1 > 2 AND tstamp * 2 <= 6")
	for _, r := range res.Rows {
		v := r[0].AsInt()
		if v < 2 || v > 3 {
			t.Fatalf("filter wrong: %v", v)
		}
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows=%d", len(res.Rows))
	}
}

func TestOrderByDescLimitOffset(t *testing.T) {
	res := mustRun(t, testDB(t), "SELECT tstamp, value_name FROM logs WHERE projid='pdf' ORDER BY tstamp DESC, value_name ASC LIMIT 2 OFFSET 1")
	if len(res.Rows) != 2 {
		t.Fatalf("rows=%d", len(res.Rows))
	}
	if res.Rows[0][0].AsInt() != 3 || res.Rows[0][1].AsText() != "pred" {
		t.Fatalf("unexpected first row %v", res.Rows[0])
	}
}

// TestReferenceLeavesPinnedStoreUnchanged: TableSnapshot.Rows aliases the
// table's row store, so a reference executor that sorted or compacted the
// rows it scanned in place would reorder every other pin's view too.
func TestReferenceLeavesPinnedStoreUnchanged(t *testing.T) {
	db := testDB(t)
	other, _ := latest(t, db).Table("logs")
	before := other.Rows()
	want := make([]relation.Row, len(before))
	for i, r := range before {
		want[i] = append(relation.Row(nil), r...)
	}
	for _, q := range []string{
		"SELECT * FROM logs ORDER BY tstamp DESC, value_name",
		"SELECT * FROM logs WHERE value_name = 'recall' OR tstamp = 3",
	} {
		if _, err := ExecuteScan(latest(t, db), mustParse(t, q)); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		got := other.Rows()
		if len(got) != len(want) {
			t.Fatalf("%s: second pin sees %d rows, want %d", q, len(got), len(want))
		}
		for i := range want {
			for j := range want[i] {
				if relation.Compare(got[i][j], want[i][j]) != 0 {
					t.Fatalf("%s: second pin's row %d changed: %v, want %v", q, i, got[i], want[i])
				}
			}
		}
	}
}

func TestOrderByExpressionNotSelected(t *testing.T) {
	res := mustRun(t, testDB(t), "SELECT value_name FROM logs WHERE projid='pdf' ORDER BY tstamp * -1, value_name")
	if len(res.Columns) != 1 {
		t.Fatalf("hidden sort column leaked: %v", res.Columns)
	}
	if res.Rows[0][0].AsText() != "acc" {
		t.Fatalf("first row: %v", res.Rows[0])
	}
	// tstamp 3 first because multiplied by -1.
	last := res.Rows[len(res.Rows)-1][0].AsText()
	if last != "acc" && last != "recall" {
		t.Fatalf("last row: %v", last)
	}
}

func TestAggregatesGlobal(t *testing.T) {
	res := mustRun(t, testDB(t), "SELECT count(*) AS n, min(tstamp) AS mn, max(tstamp) AS mx FROM logs WHERE projid = 'pdf'")
	if len(res.Rows) != 1 {
		t.Fatalf("rows=%d", len(res.Rows))
	}
	r := res.Rows[0]
	if r[0].AsInt() != 6 || r[1].AsInt() != 1 || r[2].AsInt() != 3 {
		t.Fatalf("agg row: %v", r)
	}
}

func TestGroupByWithHaving(t *testing.T) {
	res := mustRun(t, testDB(t), `
		SELECT value_name, count(*) AS n
		FROM logs WHERE projid = 'pdf'
		GROUP BY value_name
		HAVING count(*) >= 2
		ORDER BY n DESC, value_name`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows=%v", res.Rows)
	}
	if res.Rows[0][0].AsText() != "acc" || res.Rows[0][1].AsInt() != 3 {
		t.Fatalf("first group: %v", res.Rows[0])
	}
	if res.Rows[1][0].AsText() != "recall" || res.Rows[1][1].AsInt() != 2 {
		t.Fatalf("second group: %v", res.Rows[1])
	}
}

func TestGroupByExpression(t *testing.T) {
	res := mustRun(t, testDB(t), "SELECT tstamp % 2 AS parity, count(*) AS n FROM logs GROUP BY tstamp % 2 ORDER BY parity")
	if len(res.Rows) != 2 {
		t.Fatalf("rows=%v", res.Rows)
	}
	if res.Rows[0][0].AsInt() != 0 || res.Rows[0][1].AsInt() != 2 {
		t.Fatalf("parity 0: %v", res.Rows[0])
	}
	if res.Rows[1][0].AsInt() != 1 || res.Rows[1][1].AsInt() != 5 {
		t.Fatalf("parity 1: %v", res.Rows[1])
	}
}

func TestAggregateOverTextCoercion(t *testing.T) {
	res := mustRun(t, testDB(t), "SELECT max(cast_float(value)) AS best FROM logs WHERE value_name = 'acc'")
	if res.Rows[0][0].AsFloat() != 0.90 {
		t.Fatalf("best acc: %v", res.Rows[0])
	}
}

func TestJoin(t *testing.T) {
	res := mustRun(t, testDB(t), `
		SELECT l.value_name, r.vid
		FROM logs l JOIN runs r ON l.tstamp = r.tstamp
		WHERE l.projid = 'pdf' AND l.value_name = 'acc'
		ORDER BY r.vid`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows=%v", res.Rows)
	}
	if res.Rows[0][1].AsText() != "v1" || res.Rows[2][1].AsText() != "v3" {
		t.Fatalf("join vids: %v", res.Rows)
	}
}

func TestJoinRequiresEquality(t *testing.T) {
	if _, err := Run(latest(t, testDB(t)), "SELECT * FROM logs l JOIN runs r ON l.tstamp > r.tstamp"); err == nil {
		t.Fatal("non-equi join must fail")
	}
}

func TestJoinWithResidualPredicate(t *testing.T) {
	res := mustRun(t, testDB(t), `
		SELECT value_name FROM logs l JOIN runs r ON l.tstamp = r.tstamp AND l.projid = 'pdf'
		ORDER BY value_name`)
	if len(res.Rows) != 6 {
		t.Fatalf("rows=%d", len(res.Rows))
	}
}

func TestLike(t *testing.T) {
	res := mustRun(t, testDB(t), "SELECT DISTINCT filename FROM logs WHERE filename LIKE '%.py' ORDER BY filename")
	if len(res.Rows) != 3 {
		t.Fatalf("rows=%v", res.Rows)
	}
	res = mustRun(t, testDB(t), "SELECT count(*) AS n FROM logs WHERE filename LIKE 'train._y'")
	if res.Rows[0][0].AsInt() != 5 {
		t.Fatalf("LIKE underscore: %v", res.Rows[0])
	}
}

func TestInAndBetween(t *testing.T) {
	res := mustRun(t, testDB(t), "SELECT count(*) AS n FROM logs WHERE tstamp IN (1, 3)")
	if res.Rows[0][0].AsInt() != 5 {
		t.Fatalf("IN: %v", res.Rows[0])
	}
	res = mustRun(t, testDB(t), "SELECT count(*) AS n FROM logs WHERE tstamp NOT IN (1, 3)")
	if res.Rows[0][0].AsInt() != 2 {
		t.Fatalf("NOT IN: %v", res.Rows[0])
	}
	res = mustRun(t, testDB(t), "SELECT count(*) AS n FROM logs WHERE tstamp BETWEEN 2 AND 3")
	if res.Rows[0][0].AsInt() != 4 {
		t.Fatalf("BETWEEN: %v", res.Rows[0])
	}
}

func TestIsNull(t *testing.T) {
	db := testDB(t)
	tbl, _ := db.Table("logs")
	tbl.Insert(relation.Row{relation.Text("pdf"), relation.Int(4), relation.Text("z.py"), relation.Text("x"), relation.Null()})
	res := mustRun(t, db, "SELECT count(*) AS n FROM logs WHERE value IS NULL")
	if res.Rows[0][0].AsInt() != 1 {
		t.Fatalf("IS NULL: %v", res.Rows[0])
	}
	res = mustRun(t, db, "SELECT count(*) AS n FROM logs WHERE value IS NOT NULL")
	if res.Rows[0][0].AsInt() != 7 {
		t.Fatalf("IS NOT NULL: %v", res.Rows[0])
	}
}

func TestNullComparisonNeverMatches(t *testing.T) {
	db := testDB(t)
	tbl, _ := db.Table("logs")
	tbl.Insert(relation.Row{relation.Text("pdf"), relation.Int(4), relation.Text("z.py"), relation.Text("x"), relation.Null()})
	res := mustRun(t, db, "SELECT count(*) AS n FROM logs WHERE value = value")
	// The NULL-valued row must not match value = value.
	if res.Rows[0][0].AsInt() != 7 {
		t.Fatalf("NULL equality: %v", res.Rows[0])
	}
}

func TestScalarFunctions(t *testing.T) {
	db := testDB(t)
	res := mustRun(t, db, "SELECT upper(filename) AS f FROM logs WHERE value_name = 'pred'")
	if res.Rows[0][0].AsText() != "INFER.PY" {
		t.Fatalf("upper: %v", res.Rows[0])
	}
	res = mustRun(t, db, "SELECT length(filename) AS l FROM logs LIMIT 1")
	if res.Rows[0][0].AsInt() != 8 {
		t.Fatalf("length: %v", res.Rows[0])
	}
	res = mustRun(t, db, "SELECT coalesce(NULL, 'x') AS c FROM logs LIMIT 1")
	if res.Rows[0][0].AsText() != "x" {
		t.Fatalf("coalesce: %v", res.Rows[0])
	}
	res = mustRun(t, db, "SELECT abs(-3) AS a FROM logs LIMIT 1")
	if res.Rows[0][0].AsInt() != 3 {
		t.Fatalf("abs: %v", res.Rows[0])
	}
}

func TestDistinct(t *testing.T) {
	res := mustRun(t, testDB(t), "SELECT DISTINCT projid FROM logs ORDER BY projid")
	if len(res.Rows) != 2 || res.Rows[0][0].AsText() != "other" {
		t.Fatalf("distinct: %v", res.Rows)
	}
}

func TestUnknownColumnAndTable(t *testing.T) {
	db := testDB(t)
	if _, err := Run(latest(t, db), "SELECT nope FROM logs"); err == nil || !strings.Contains(err.Error(), "unknown column") {
		t.Fatalf("unknown column: %v", err)
	}
	if _, err := Run(latest(t, db), "SELECT * FROM nope"); err == nil {
		t.Fatal("unknown table must fail")
	}
}

func TestDivisionByZeroSurfaces(t *testing.T) {
	if _, err := Run(latest(t, testDB(t)), "SELECT * FROM logs WHERE 1 / 0 = 1"); err == nil {
		t.Fatal("division by zero must surface")
	}
}

func TestNotAndParens(t *testing.T) {
	res := mustRun(t, testDB(t), "SELECT count(*) AS n FROM logs WHERE NOT (projid = 'other' OR tstamp = 3)")
	if res.Rows[0][0].AsInt() != 4 {
		t.Fatalf("NOT/parens: %v", res.Rows[0])
	}
}

func TestStringConcatPlus(t *testing.T) {
	res := mustRun(t, testDB(t), "SELECT projid + ':' + filename AS tag FROM logs LIMIT 1")
	if res.Rows[0][0].AsText() != "pdf:train.py" {
		t.Fatalf("concat: %v", res.Rows[0])
	}
}

func TestVirtualTableQuery(t *testing.T) {
	db := testDB(t)
	vt := &relation.FuncVirtualTable{
		TableName: "git",
		TableSchema: relation.MustSchema(
			relation.Column{Name: "vid", Type: relation.TText},
			relation.Column{Name: "filename", Type: relation.TText},
		),
		RowsFn: func() []relation.Row {
			return []relation.Row{
				{relation.Text("v1"), relation.Text("train.py")},
				{relation.Text("v2"), relation.Text("train.py")},
			}
		},
	}
	if err := db.RegisterVirtual(vt); err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, db, "SELECT count(*) AS n FROM git WHERE filename = 'train.py'")
	if res.Rows[0][0].AsInt() != 2 {
		t.Fatalf("virtual query: %v", res.Rows[0])
	}
}

func TestAvgSum(t *testing.T) {
	res := mustRun(t, testDB(t), "SELECT avg(tstamp) AS a, sum(tstamp) AS s FROM logs WHERE projid = 'pdf'")
	if res.Rows[0][1].AsFloat() != 12 {
		t.Fatalf("sum: %v", res.Rows[0])
	}
	if res.Rows[0][0].AsFloat() != 2.0 {
		t.Fatalf("avg: %v", res.Rows[0])
	}
}

func TestParseRoundTripSQLRendering(t *testing.T) {
	stmt, err := Parse("SELECT a, count(*) AS n FROM t WHERE x = 'v' AND y > 2 GROUP BY a ORDER BY n DESC LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if !stmt.HasAggregates() {
		t.Fatal("aggregate not detected")
	}
	if stmt.Limit != 5 || len(stmt.GroupBy) != 1 || len(stmt.OrderBy) != 1 {
		t.Fatalf("stmt: %+v", stmt)
	}
	if stmt.Where.SQL() != "((x = 'v') AND (y > 2))" {
		t.Fatalf("where SQL: %s", stmt.Where.SQL())
	}
}
