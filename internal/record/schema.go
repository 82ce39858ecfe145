package record

import (
	"fmt"

	"flordb/internal/relation"
)

// The base-table schemas of Figure 1. Virtual tables (git, build_deps) are
// registered by their owning subsystems (vcs, build).

// LogsSchema is the schema of the `logs` table.
func LogsSchema() *relation.Schema {
	return relation.MustSchema(
		relation.Column{Name: "projid", Type: relation.TText, NotNull: true},
		relation.Column{Name: "tstamp", Type: relation.TInt, NotNull: true},
		relation.Column{Name: "filename", Type: relation.TText, NotNull: true},
		relation.Column{Name: "ctx_id", Type: relation.TInt, NotNull: true},
		relation.Column{Name: "value_name", Type: relation.TText, NotNull: true},
		relation.Column{Name: "value", Type: relation.TText},
		relation.Column{Name: "value_type", Type: relation.TInt, NotNull: true},
	)
}

// LoopsSchema is the schema of the `loops` table.
func LoopsSchema() *relation.Schema {
	return relation.MustSchema(
		relation.Column{Name: "projid", Type: relation.TText, NotNull: true},
		relation.Column{Name: "tstamp", Type: relation.TInt, NotNull: true},
		relation.Column{Name: "filename", Type: relation.TText, NotNull: true},
		relation.Column{Name: "ctx_id", Type: relation.TInt, NotNull: true},
		relation.Column{Name: "parent_ctx_id", Type: relation.TInt, NotNull: true},
		relation.Column{Name: "loop_name", Type: relation.TText, NotNull: true},
		relation.Column{Name: "loop_iteration", Type: relation.TInt, NotNull: true},
		relation.Column{Name: "iteration_value", Type: relation.TText},
	)
}

// Ts2vidSchema is the schema of the `ts2vid` table mapping logical timestamp
// ranges to version ids.
func Ts2vidSchema() *relation.Schema {
	return relation.MustSchema(
		relation.Column{Name: "projid", Type: relation.TText, NotNull: true},
		relation.Column{Name: "ts_start", Type: relation.TInt, NotNull: true},
		relation.Column{Name: "ts_end", Type: relation.TInt, NotNull: true},
		relation.Column{Name: "vid", Type: relation.TText, NotNull: true},
		relation.Column{Name: "root_target", Type: relation.TText},
	)
}

// ObjStoreSchema is the schema of the `obj_store` table holding checkpoint
// and large-value blobs.
func ObjStoreSchema() *relation.Schema {
	return relation.MustSchema(
		relation.Column{Name: "projid", Type: relation.TText, NotNull: true},
		relation.Column{Name: "tstamp", Type: relation.TInt, NotNull: true},
		relation.Column{Name: "filename", Type: relation.TText, NotNull: true},
		relation.Column{Name: "ctx_id", Type: relation.TInt, NotNull: true},
		relation.Column{Name: "value_name", Type: relation.TText, NotNull: true},
		relation.Column{Name: "contents", Type: relation.TBlob},
	)
}

// ArgsSchema is the schema of the `args` table recording flor.arg
// resolutions. The paper folds args into the log stream; we give them their
// own table so replay can query them directly.
func ArgsSchema() *relation.Schema {
	return relation.MustSchema(
		relation.Column{Name: "projid", Type: relation.TText, NotNull: true},
		relation.Column{Name: "tstamp", Type: relation.TInt, NotNull: true},
		relation.Column{Name: "filename", Type: relation.TText, NotNull: true},
		relation.Column{Name: "name", Type: relation.TText, NotNull: true},
		relation.Column{Name: "value", Type: relation.TText},
	)
}

// GitSchema is the schema of the virtual `git` table (one row per file per
// version).
func GitSchema() *relation.Schema {
	return relation.MustSchema(
		relation.Column{Name: "vid", Type: relation.TText, NotNull: true},
		relation.Column{Name: "filename", Type: relation.TText, NotNull: true},
		relation.Column{Name: "parent_vid", Type: relation.TText},
		relation.Column{Name: "contents", Type: relation.TText},
	)
}

// BuildDepsSchema is the schema of the virtual `build_deps` table.
func BuildDepsSchema() *relation.Schema {
	return relation.MustSchema(
		relation.Column{Name: "vid", Type: relation.TText},
		relation.Column{Name: "target", Type: relation.TText, NotNull: true},
		relation.Column{Name: "deps", Type: relation.TText},
		relation.Column{Name: "cmds", Type: relation.TText},
		relation.Column{Name: "cached", Type: relation.TBool},
	)
}

// Tables bundles the base tables of a FlorDB database instance — the write
// surface. Every read goes through a TablesView pinned to a database
// snapshot (Tables.At).
type Tables struct {
	Logs     *relation.Table
	Loops    *relation.Table
	Ts2vid   *relation.Table
	ObjStore *relation.Table
	Args     *relation.Table
}

// TablesView is the read surface over the Figure-1 base tables: their
// snapshots pinned at one epoch. The pivot engine, hindsight replay and the
// checkpoint-blob lookups operate on it; a read-your-writes view is one
// pinned with relation.Database.SnapshotLatest.
type TablesView struct {
	Logs     *relation.TableSnapshot
	Loops    *relation.TableSnapshot
	Ts2vid   *relation.TableSnapshot
	ObjStore *relation.TableSnapshot
	Args     *relation.TableSnapshot
}

// At returns the read surface pinned to a database snapshot. It fails if the
// snapshot does not carry the Figure-1 base tables, or if logs or obj_store
// lacks the (projid, value_name) hash index — the one access path of the
// pivot and the checkpoint-blob lookups (CreateTables installs it).
func (t *Tables) At(snap *relation.Snapshot) (*TablesView, error) {
	v := &TablesView{}
	for _, bind := range []struct {
		name string
		dst  **relation.TableSnapshot
	}{
		{"logs", &v.Logs}, {"loops", &v.Loops}, {"ts2vid", &v.Ts2vid},
		{"obj_store", &v.ObjStore}, {"args", &v.Args},
	} {
		r, ok := snap.Table(bind.name)
		if !ok {
			return nil, fmt.Errorf("record: snapshot is missing base table %q", bind.name)
		}
		*bind.dst = r
	}
	for _, tbl := range []*relation.TableSnapshot{v.Logs, v.ObjStore} {
		if _, ok := tbl.HashIndexOn(byNameCols...); !ok {
			return nil, fmt.Errorf("record: table %q has no hash index on %v", tbl.Name(), byNameCols)
		}
	}
	return v, nil
}

// byNameCols is the logs and obj_store hash index behind EachLog and
// GetBlobExact.
var byNameCols = []string{"projid", "value_name"}

// CreateTables creates all base tables in the database and installs their
// secondary indexes: NewTables, then CreateIndexes. Sessions, recovery and
// replica apply — everything that queries the tables — start here.
func CreateTables(db *relation.Database) (*Tables, error) {
	t, err := NewTables(db)
	if err != nil {
		return nil, err
	}
	if err := t.CreateIndexes(); err != nil {
		return nil, err
	}
	return t, nil
}

// NewTables creates all base tables in the database with no secondary
// index. A compaction builds its tables this way: they are only ever
// written to a snapshot, never queried (Tables.At refuses them), and
// snapshots carry no indexes.
func NewTables(db *relation.Database) (*Tables, error) {
	logs, err := db.CreateTable("logs", LogsSchema())
	if err != nil {
		return nil, err
	}
	loops, err := db.CreateTable("loops", LoopsSchema())
	if err != nil {
		return nil, err
	}
	ts2vid, err := db.CreateTable("ts2vid", Ts2vidSchema())
	if err != nil {
		return nil, err
	}
	objStore, err := db.CreateTable("obj_store", ObjStoreSchema())
	if err != nil {
		return nil, err
	}
	args, err := db.CreateTable("args", ArgsSchema())
	if err != nil {
		return nil, err
	}
	return &Tables{Logs: logs, Loops: loops, Ts2vid: ts2vid, ObjStore: objStore, Args: args}, nil
}

// CreateIndexes installs the secondary indexes the access paths in the
// paper need: logs by (projid, value_name) for dataframe pivots, logs/loops
// by tstamp for version slicing, loops/ts2vid/args by project for the
// per-project hot queries the SQL planner turns into index lookups. Rows
// already in the tables are indexed in bulk.
func (t *Tables) CreateIndexes() error {
	for _, hix := range []struct {
		tbl  *relation.Table
		cols []string
	}{
		{t.Logs, byNameCols},
		{t.ObjStore, byNameCols},
		{t.Loops, []string{"projid"}},
		{t.Ts2vid, []string{"projid"}},
		{t.Args, []string{"projid", "name"}},
	} {
		if _, err := hix.tbl.CreateHashIndex(hix.cols...); err != nil {
			return err
		}
	}
	for _, oix := range []struct {
		tbl *relation.Table
		col string
	}{
		{t.Logs, "tstamp"}, {t.Loops, "tstamp"}, {t.Ts2vid, "ts_start"},
	} {
		if _, err := oix.tbl.CreateOrderedIndex(oix.col); err != nil {
			return err
		}
	}
	return nil
}

// Apply shreds a decoded record into the base tables. Commit records carry
// no table row of their own (ts2vid rows are written by the session, which
// knows the version id span); they are accepted and ignored here so a WAL
// replay can stream every record through one code path.
func (t *Tables) Apply(rec any) error {
	switch r := rec.(type) {
	case *LogRecord:
		_, err := t.Logs.Insert(relation.Row{
			relation.Text(r.ProjID), relation.Int(r.Tstamp), relation.Text(r.Filename),
			relation.Int(r.CtxID), relation.Text(r.ValueName), relation.Text(r.Value),
			relation.Int(int64(r.ValueType)),
		})
		return err
	case *LoopRecord:
		_, err := t.Loops.Insert(relation.Row{
			relation.Text(r.ProjID), relation.Int(r.Tstamp), relation.Text(r.Filename),
			relation.Int(r.CtxID), relation.Int(r.ParentCtxID), relation.Text(r.LoopName),
			relation.Int(r.LoopIter), relation.Text(r.IterValue),
		})
		return err
	case *ArgRecord:
		_, err := t.Args.Insert(relation.Row{
			relation.Text(r.ProjID), relation.Int(r.Tstamp), relation.Text(r.Filename),
			relation.Text(r.Name), relation.Text(r.Value),
		})
		return err
	case *CkptRecord:
		// Checkpoint blobs are written to obj_store directly by the
		// checkpoint manager; the WAL record is provenance only.
		return nil
	case *CommitRecord:
		return nil
	default:
		return fmt.Errorf("record: cannot apply %T", rec)
	}
}

// PutBlob stores a blob in obj_store.
func (t *Tables) PutBlob(projid string, tstamp int64, filename string, ctxID int64, name string, contents []byte) error {
	_, err := t.ObjStore.Insert(relation.Row{
		relation.Text(projid), relation.Int(tstamp), relation.Text(filename),
		relation.Int(ctxID), relation.Text(name), relation.Blob(contents),
	})
	return err
}

// GetBlobExact retrieves the obj_store blob for (projid, name) written at
// exactly the given tstamp, honoring the view's visibility.
func (v *TablesView) GetBlobExact(projid, name string, tstamp int64) ([]byte, bool) {
	var out []byte
	found := false
	eachByName(v.ObjStore, projid, name, func(r relation.Row) {
		if r[1].AsInt() == tstamp {
			out = r[5].AsBlob()
			found = true
		}
	})
	return out, found
}

// EachLog visits the visible logs rows for (projid, value_name) in store
// order.
func (v *TablesView) EachLog(projid, name string, fn func(relation.Row)) {
	eachByName(v.Logs, projid, name, fn)
}

// eachByName visits t's visible rows for (projid, value_name) through the
// hash index At guarantees.
func eachByName(t *relation.TableSnapshot, projid, name string, fn func(relation.Row)) {
	ix, _ := t.HashIndexOn(byNameCols...)
	for _, id := range ix.Lookup(relation.Text(projid), relation.Text(name)) {
		if r, ok := t.Get(id); ok {
			fn(r)
		}
	}
}
