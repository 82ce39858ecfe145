package relation

import (
	"fmt"
	"iter"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flordb/internal/metrics"
)

// VirtualTable produces rows on demand; FlorDB uses virtual tables for the
// `git` and `build_deps` relations of Figure 1, whose contents are derived
// from the version-control store and the build system rather than stored.
type VirtualTable interface {
	Name() string
	Schema() *Schema
	Rows() []Row
}

// Database is a named collection of base and virtual tables and the epoch
// authority for MVCC visibility: all of its tables share one epoch counter,
// which advances at commit boundaries, so Snapshot can pin a consistent view
// of every table at once. It is also the one MVCC clock: each epoch is
// recorded with its commit's wall time, which AS OF TIMESTAMP resolves
// against (timetravel.go).
type Database struct {
	mu      sync.RWMutex
	tables  map[string]*Table
	virtual map[string]VirtualTable
	epoch   atomic.Int64 // committed epoch; rows written now belong to epoch+1
	pins    atomic.Int64 // live (unreleased) snapshot pins

	clockMu sync.Mutex   // serializes epoch advances; guards stamps; acquired after mu
	stamps  []EpochStamp // ascending Epoch, nondecreasing Wall

	memo memoStats // page-partial counters of every table (pagememo.go)
}

// NewDatabase creates an empty database at epoch 0.
func NewDatabase() *Database {
	return &Database{
		tables:  make(map[string]*Table),
		virtual: make(map[string]VirtualTable),
	}
}

// Epoch returns the current committed epoch.
func (db *Database) Epoch() int64 { return db.epoch.Load() }

// Pins returns the number of live (unreleased) snapshot pins. It feeds the
// /healthz snapshot_pins gauge; a leaked pin would distort it for good, which
// is why the snapshotrelease analyzer enforces the release discipline
// statically.
func (db *Database) Pins() int64 { return db.pins.Load() }

// AdvanceEpoch publishes the in-flight write epoch: rows written since the
// previous advance become visible to committed-epoch snapshots taken from
// now on. The new epoch is stamped with wall, the commit's wall time, in the
// same critical section that advances the counter, so every epoch has
// exactly one stamp however commits interleave. Stamps are clamped to be
// nondecreasing so resolution can binary-search them across a clock step.
// It returns the new committed epoch. Callers invoke it at commit
// boundaries, after the corresponding WAL commit record is durable.
func (db *Database) AdvanceEpoch(wall time.Time) int64 {
	w := wall.UnixNano()
	db.clockMu.Lock()
	defer db.clockMu.Unlock()
	if n := len(db.stamps); n > 0 && w < db.stamps[n-1].Wall {
		w = db.stamps[n-1].Wall
	}
	e := db.epoch.Add(1)
	db.stamps = append(db.stamps, EpochStamp{Epoch: e, Wall: w})
	return e
}

// Snapshot pins an immutable, consistent view of all tables at the current
// committed epoch, without copying any data. Readers holding the snapshot
// never block writers and are never blocked by them; rows committed after
// the pin — and rows of transactions in flight at the pin — are invisible.
func (db *Database) Snapshot() *Snapshot { return db.snapshotAt(db.epoch.Load()) }

// SnapshotLatest pins a view at the in-flight write epoch: committed rows
// plus whatever uncommitted rows were published at pin time. A session uses
// it for its own queries so it reads its own writes; concurrent serving
// paths should prefer Snapshot.
func (db *Database) SnapshotLatest() *Snapshot { return db.snapshotAt(db.epoch.Load() + 1) }

// snapshotAt reads the epoch before pinning table states: state publication
// happens before the epoch advance in every writer, so any table state read
// afterwards includes every row committed at or before the pinned epoch
// (later rows lie past the pin's visible prefix).
func (db *Database) snapshotAt(epoch int64) *Snapshot {
	db.mu.RLock()
	defer db.mu.RUnlock()
	db.pins.Add(1)
	s := &Snapshot{
		db:      db,
		epoch:   epoch,
		tables:  make(map[string]*TableSnapshot, len(db.tables)),
		virtual: make(map[string]VirtualTable, len(db.virtual)),
	}
	for key, t := range db.tables {
		s.tables[key] = t.At(epoch)
	}
	for key, v := range db.virtual {
		s.virtual[key] = v
	}
	return s
}

// CreateTable creates a base table; it fails if the name is taken. The table
// shares the database's epoch counter.
func (db *Database) CreateTable(name string, schema *Schema) (*Table, error) {
	key := strings.ToLower(name)
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[key]; ok {
		return nil, fmt.Errorf("relation: table %q already exists", name)
	}
	if _, ok := db.virtual[key]; ok {
		return nil, fmt.Errorf("relation: virtual table %q already exists", name)
	}
	t := NewTable(name, schema)
	t.epoch = &db.epoch
	t.stats = &db.memo
	db.tables[key] = t
	return t, nil
}

// RegisterVirtual installs a virtual table; it fails if the name is taken.
func (db *Database) RegisterVirtual(v VirtualTable) error {
	key := strings.ToLower(v.Name())
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[key]; ok {
		return fmt.Errorf("relation: table %q already exists", v.Name())
	}
	if _, ok := db.virtual[key]; ok {
		return fmt.Errorf("relation: virtual table %q already exists", v.Name())
	}
	db.virtual[key] = v
	return nil
}

// Table returns the named base table.
func (db *Database) Table(name string) (*Table, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(name)]
	return t, ok
}

// RowVersions reports the row versions held across base tables and how
// many are live in the latest view. Tables are insert-only, so the two are
// always equal. It feeds the /metrics row_versions gauge.
func (db *Database) RowVersions() (total, live int64) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, t := range db.tables {
		total += int64(t.Len())
	}
	return total, total
}

// RegisterMetrics publishes the database's state as polled gauges: the MVCC
// clock and its pins, version-store size, and the process-wide
// zone-map scan counters. The page-partial memo reports per database: the
// counters agg_pages_reused (pages an aggregate merged from the memo instead
// of decoding), agg_pages_built and agg_memo_refusals (signatures refused for
// their group count, and statements the signature cap turned away), and the
// gauge agg_memo_groups (groups the memo holds).
func (db *Database) RegisterMetrics(reg *metrics.Registry) {
	reg.RegisterCounter("agg_pages_reused", &db.memo.reused)
	reg.RegisterCounter("agg_pages_built", &db.memo.built)
	reg.RegisterCounter("agg_memo_refusals", &db.memo.refusals)
	reg.IntGauge("agg_memo_groups", db.memo.groups.Load)
	reg.IntGauge("epoch", db.Epoch)
	reg.IntGauge("snapshot_pins", db.Pins)
	reg.IntGauge("row_versions", func() int64 { total, _ := db.RowVersions(); return total })
	reg.IntGauge("pages_pruned", zonePagesPruned.Load)
	reg.IntGauge("pages_decoded", zonePagesDecoded.Load)
}

// Snapshot is an immutable, consistent view of a database's tables pinned at
// one epoch, and the only catalog: the SQL layer resolves table names against
// it, so every query (including multi-table joins) observes one state. A
// "latest" read is a pin at the in-flight write epoch (SnapshotLatest).
// Virtual tables are not versioned: their rows are derived from external
// stores (the version-control repo, the build system) and materialize at
// read time.
type Snapshot struct {
	db       *Database
	epoch    int64
	tables   map[string]*TableSnapshot
	virtual  map[string]VirtualTable
	released atomic.Bool
}

// Epoch returns the epoch the snapshot is pinned at.
func (s *Snapshot) Epoch() int64 { return s.epoch }

// Release unpins the snapshot, decrementing the owning database's pin
// count. It is idempotent and nil-safe; the snapshot's data remains
// readable afterwards (release only ends pin accounting, it does not
// invalidate the pinned table states).
func (s *Snapshot) Release() {
	if s == nil {
		return
	}
	if s.released.CompareAndSwap(false, true) {
		s.db.pins.Add(-1)
	}
}

// Table returns the named table's pinned view.
func (s *Snapshot) Table(name string) (*TableSnapshot, bool) {
	v, ok := s.tables[strings.ToLower(name)]
	return v, ok
}

// Source returns the schema and the lazy row sequence of any table, base or
// virtual: a base table yields its pinned visible rows in insertion order,
// and a virtual table produces its rows only when the sequence is ranged.
func (s *Snapshot) Source(name string) (*Schema, iter.Seq[Row], error) {
	key := strings.ToLower(name)
	if t, ok := s.tables[key]; ok {
		return t.Schema(), lazyRows(t.Rows), nil
	}
	if v, ok := s.virtual[key]; ok {
		return v.Schema(), lazyRows(v.Rows), nil
	}
	return nil, nil, fmt.Errorf("relation: no table %q", name)
}

// Names lists all table names (base then virtual), sorted.
func (s *Snapshot) Names() []string {
	var out []string
	for _, t := range s.tables {
		out = append(out, t.Name())
	}
	for _, v := range s.virtual {
		out = append(out, v.Name())
	}
	sort.Strings(out)
	return out
}

// FuncVirtualTable adapts a closure into a VirtualTable.
type FuncVirtualTable struct {
	TableName   string
	TableSchema *Schema
	RowsFn      func() []Row
}

// Name implements VirtualTable.
func (f *FuncVirtualTable) Name() string { return f.TableName }

// Schema implements VirtualTable.
func (f *FuncVirtualTable) Schema() *Schema { return f.TableSchema }

// Rows implements VirtualTable.
func (f *FuncVirtualTable) Rows() []Row { return f.RowsFn() }
