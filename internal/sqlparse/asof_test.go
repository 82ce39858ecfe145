package sqlparse

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"flordb/internal/relation"
)

func TestParseAsOfEpoch(t *testing.T) {
	stmt, err := Parse("SELECT * FROM logs WHERE tstamp = 1 AS OF 7")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.AsOf == nil || stmt.AsOf.ByTime || stmt.AsOf.Epoch != 7 {
		t.Fatalf("AsOf = %+v, want epoch 7", stmt.AsOf)
	}
}

func TestParseAsOfAfterLimit(t *testing.T) {
	stmt, err := Parse("SELECT * FROM logs ORDER BY tstamp LIMIT 5 OFFSET 1 AS OF 2")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.AsOf == nil || stmt.AsOf.Epoch != 2 || stmt.Limit != 5 || stmt.Offset != 1 {
		t.Fatalf("stmt = limit %d offset %d asof %+v", stmt.Limit, stmt.Offset, stmt.AsOf)
	}
}

func TestParseAsOfDirectlyAfterTable(t *testing.T) {
	// `FROM t AS OF 3` must not read OF as a table alias.
	stmt, err := Parse("SELECT * FROM logs AS OF 3")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.From.Alias != "" || stmt.AsOf == nil || stmt.AsOf.Epoch != 3 {
		t.Fatalf("alias %q asof %+v", stmt.From.Alias, stmt.AsOf)
	}
}

func TestParseAsOfTimestamp(t *testing.T) {
	for _, tc := range []struct {
		lit  string
		want time.Time
	}{
		{"2026-08-01T12:30:00Z", time.Date(2026, 8, 1, 12, 30, 0, 0, time.UTC)},
		{"2026-08-01 12:30:00", time.Date(2026, 8, 1, 12, 30, 0, 0, time.UTC)},
		{"2026-08-01", time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)},
	} {
		stmt, err := Parse("SELECT * FROM logs AS OF TIMESTAMP '" + tc.lit + "'")
		if err != nil {
			t.Fatalf("%s: %v", tc.lit, err)
		}
		if stmt.AsOf == nil || !stmt.AsOf.ByTime || !stmt.AsOf.Time.Equal(tc.want) {
			t.Fatalf("%s: AsOf = %+v, want %v", tc.lit, stmt.AsOf, tc.want)
		}
	}
}

func TestParseAsOfErrors(t *testing.T) {
	for _, q := range []string{
		"SELECT * FROM logs AS OF",
		"SELECT * FROM logs AS OF 'x'",
		"SELECT * FROM logs AS OF TIMESTAMP",
		"SELECT * FROM logs AS OF TIMESTAMP 'not a time'",
		"SELECT * FROM logs AS OF 1 AS OF 2",
	} {
		if _, err := Parse(q); err == nil {
			t.Errorf("%q parsed without error", q)
		}
	}
}

// asofBase is the wall clock asofDB stamps its first commit with; commit e
// is stamped e-1 hours later.
var asofBase = time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)

// asofDB commits one logs row per epoch so epoch e sees rows 1..e.
func asofDB(t *testing.T) *relation.Database {
	t.Helper()
	db := relation.NewDatabase()
	logs, err := db.CreateTable("logs", relation.MustSchema(
		relation.Column{Name: "tstamp", Type: relation.TInt},
		relation.Column{Name: "value", Type: relation.TText},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if _, err := logs.Insert(relation.Row{relation.Int(int64(i)), relation.Text("v")}); err != nil {
			t.Fatal(err)
		}
		db.AdvanceEpoch(asofBase.Add(time.Duration(i-1) * time.Hour))
	}
	return db
}

func TestExecuteAsOfRebasesEpoch(t *testing.T) {
	db := asofDB(t)
	for e := 0; e <= 4; e++ {
		res, err := Run(db.SnapshotLatest(), "SELECT count(*) c FROM logs AS OF "+strconv.Itoa(e))
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		if got := res.Rows[0][0].AsInt(); got != int64(e) {
			t.Fatalf("AS OF %d count = %d, want %d", e, got, e)
		}
	}
	// Without AS OF: current visibility.
	res, err := Run(db.SnapshotLatest(), "SELECT count(*) c FROM logs")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].AsInt(); got != 4 {
		t.Fatalf("current count = %d, want 4", got)
	}
}

func TestExecuteAsOfAgainstSnapshotRefusesFuture(t *testing.T) {
	db := asofDB(t)
	snap, err := db.SnapshotAt(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(snap, "SELECT * FROM logs AS OF 3"); err == nil {
		t.Fatal("AS OF beyond the pinned snapshot accepted")
	}
	res, err := Run(snap, "SELECT count(*) c FROM logs AS OF 1")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].AsInt(); got != 1 {
		t.Fatalf("rebased count = %d, want 1", got)
	}
}

// TestExecuteAsOfByTimeResolvesAgainstDatabase: a latest pin resolves AS OF
// TIMESTAMP through its database's clock — the greatest epoch stamped at or
// before the time, 0 before every stamp, clamped to a snapshot's pin — and a
// refusal naming the first stamp, never epoch 0, before the first stamp of a
// clock whose stamps start above epoch 1.
func TestExecuteAsOfByTimeResolvesAgainstDatabase(t *testing.T) {
	db := asofDB(t)
	count := func(cat *relation.Snapshot, ts string) int64 {
		t.Helper()
		res, err := Run(cat, "SELECT count(*) c FROM logs AS OF TIMESTAMP '"+ts+"'")
		if err != nil {
			t.Fatalf("AS OF TIMESTAMP %s: %v", ts, err)
		}
		return res.Rows[0][0].AsInt()
	}
	for _, c := range []struct {
		ts   string
		want int64
	}{
		{"2026-08-01", 0},             // before the first commit
		{"2026-08-01T12:00:00Z", 1},   // the first commit's own stamp
		{"2026-08-01T13:30:00Z", 2},   // between the second and third
		{"2026-08-01 15:00:00", 4},    // the last commit's stamp
		{"2027-01-01T00:00:00.5Z", 4}, // after every commit
	} {
		if got := count(db.SnapshotLatest(), c.ts); got != c.want {
			t.Fatalf("AS OF TIMESTAMP %s counts %d rows, want %d", c.ts, got, c.want)
		}
	}
	snap, err := db.SnapshotAt(2)
	if err != nil {
		t.Fatal(err)
	}
	if got := count(snap, "2027-01-01"); got != 2 {
		t.Fatalf("snapshot pinned at 2 counts %d rows, want 2", got)
	}
	db.Restore(db.Epoch(), db.EpochStamps()[2:])
	if _, err := Run(db.SnapshotLatest(), "SELECT * FROM logs AS OF TIMESTAMP '2026-08-01T13:30:00Z'"); err == nil || !strings.Contains(err.Error(), "epoch 3") {
		t.Fatalf("err = %v, want a refusal naming epoch 3", err)
	}
	if got := count(db.SnapshotLatest(), "2026-08-01T14:00:00Z"); got != 3 {
		t.Fatalf("AS OF the first stamp counts %d rows, want 3", got)
	}
}

// TestPlanCacheAsOfBypass is the pollution regression: unique-literal AS OF
// queries must not insert into the cache or evict hot entries, and must not
// count toward hit/miss stats.
func TestPlanCacheAsOfBypass(t *testing.T) {
	c := NewPlanCache(2)
	hot1, hot2 := "SELECT a FROM t", "SELECT b FROM t"
	s1, err := c.Parse(hot1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Parse(hot2); err != nil {
		t.Fatal(err)
	}

	for epoch := 0; epoch < 100; epoch++ {
		stmt, err := c.Parse("SELECT a FROM t AS OF " + strconv.Itoa(epoch))
		if err != nil {
			t.Fatal(err)
		}
		if stmt.AsOf == nil || stmt.AsOf.Epoch != int64(epoch) {
			t.Fatalf("AsOf = %+v", stmt.AsOf)
		}
	}

	if c.Len() != 2 {
		t.Fatalf("cache len = %d after AS OF storm, want 2", c.Len())
	}
	s1again, err := c.Parse(hot1)
	if err != nil {
		t.Fatal(err)
	}
	if s1again != s1 {
		t.Fatal("hot entry evicted by AS OF queries")
	}
	// 3 hot parses: 2 misses (first sights) + 1 hit; the 100 AS OF parses
	// contribute nothing.
	if hits, misses := c.Stats(); hits != 1 || misses != 2 {
		t.Fatalf("stats = %d hits / %d misses, want 1 / 2", hits, misses)
	}
}

// TestPlanCacheParseErrorNotAMiss: a parse error must not inflate the miss
// counter — misses measure effectiveness on parseable queries.
func TestPlanCacheParseErrorNotAMiss(t *testing.T) {
	c := NewPlanCache(2)
	if _, err := c.Parse("SELEC nonsense"); err == nil {
		t.Fatal("garbage parsed")
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 0 {
		t.Fatalf("stats after parse error = %d hits / %d misses, want 0 / 0", hits, misses)
	}
}
