package relation

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

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

// Catalog is the read surface the SQL layer resolves table names against and
// plans over: either the live Database (latest visibility) or a pinned
// Snapshot (one-epoch visibility).
type Catalog interface {
	// Reader returns the named base table's read surface, if it exists.
	Reader(name string) (TableReader, bool)
	// Source returns an iterator over any table, base or virtual.
	Source(name string) (Iterator, error)
	// SchemaOf returns the schema of any table, base or virtual.
	SchemaOf(name string) (*Schema, error)
}

// Database is a named collection of base and virtual tables and the epoch
// authority for MVCC visibility: all of its tables share one epoch counter,
// which advances at commit boundaries, so Snapshot can pin a consistent view
// of every table at once.
type Database struct {
	mu       sync.RWMutex
	tables   map[string]*Table
	virtual  map[string]VirtualTable
	epoch    atomic.Int64 // committed epoch; rows written now belong to epoch+1
	minEpoch atomic.Int64 // retention floor; epochs below it are retired
	pins     atomic.Int64 // live (unreleased) snapshot pins

	pinMu  sync.Mutex    // guards pinned; acquired after mu when both are held
	pinned map[int64]int // live pin count per epoch, for the GC retention floor
}

// NewDatabase creates an empty database at epoch 0.
func NewDatabase() *Database {
	return &Database{
		tables:  make(map[string]*Table),
		virtual: make(map[string]VirtualTable),
		pinned:  make(map[int64]int),
	}
}

// Epoch returns the current committed epoch.
func (db *Database) Epoch() int64 { return db.epoch.Load() }

// Pins returns the number of live (unreleased) snapshot pins. It feeds the
// /healthz snapshot_pins gauge, and the epoch-retention GC will refuse to
// reclaim epochs a live pin still covers — so a leaked pin is an unbounded
// retention leak, which is why the snapshotrelease analyzer enforces the
// release discipline statically.
func (db *Database) Pins() int64 { return db.pins.Load() }

// AdvanceEpoch publishes the in-flight write epoch: rows written since the
// previous advance become visible to committed-epoch snapshots taken from
// now on. It returns the new committed epoch. Callers invoke it at commit
// boundaries, after the corresponding WAL commit record is durable.
func (db *Database) AdvanceEpoch() int64 { return db.epoch.Add(1) }

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
// (later rows are filtered by their born epoch).
func (db *Database) snapshotAt(epoch int64) *Snapshot {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.snapshotLocked(epoch)
}

// snapshotLocked pins under db.mu (read or write side), which excludes GCBelow:
// the pin is registered before GCBelow can recompute the floor, so a snapshot
// returned from here is never pruned underneath its reader.
func (db *Database) snapshotLocked(epoch int64) *Snapshot {
	db.pins.Add(1)
	db.pinMu.Lock()
	db.pinned[epoch]++
	db.pinMu.Unlock()
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

// Reader implements Catalog with latest visibility.
func (db *Database) Reader(name string) (TableReader, bool) {
	t, ok := db.Table(name)
	if !ok {
		return nil, false
	}
	return t, true
}

// DropTable removes a base table.
func (db *Database) DropTable(name string) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := db.tables[key]; !ok {
		return false
	}
	delete(db.tables, key)
	return true
}

// Source returns an iterator and schema for any table, base or virtual.
func (db *Database) Source(name string) (Iterator, error) {
	key := strings.ToLower(name)
	db.mu.RLock()
	t, isBase := db.tables[key]
	v, isVirtual := db.virtual[key]
	db.mu.RUnlock()
	switch {
	case isBase:
		return NewScan(t), nil
	case isVirtual:
		return NewLazyScan(v.Schema(), v.Rows), nil
	default:
		return nil, fmt.Errorf("relation: no table %q", name)
	}
}

// SchemaOf returns the schema of any table, base or virtual.
func (db *Database) SchemaOf(name string) (*Schema, error) {
	key := strings.ToLower(name)
	db.mu.RLock()
	defer db.mu.RUnlock()
	if t, ok := db.tables[key]; ok {
		return t.Schema(), nil
	}
	if v, ok := db.virtual[key]; ok {
		return v.Schema(), nil
	}
	return nil, fmt.Errorf("relation: no table %q", name)
}

// RowVersions reports the total row versions held across base tables
// (tombstoned versions included) and how many are live in the latest view.
// The gap between the two is MVCC history: what the epoch-retention GC and
// compaction exist to bound. It feeds the /metrics row_versions and
// live_rows gauges.
func (db *Database) RowVersions() (total, live int64) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, t := range db.tables {
		st := t.state.Load()
		total += int64(len(st.rows))
		live += int64(st.live)
	}
	return total, live
}

// RegisterMetrics publishes the database's state as polled gauges: the MVCC
// clock and its retention bounds, version-store size, and the process-wide
// zone-map scan counters.
func (db *Database) RegisterMetrics(reg *metrics.Registry) {
	reg.IntGauge("epoch", db.Epoch)
	reg.IntGauge("snapshot_pins", db.Pins)
	reg.IntGauge("retention_floor_epoch", db.MinEpoch)
	reg.IntGauge("row_versions", func() int64 { total, _ := db.RowVersions(); return total })
	reg.IntGauge("live_rows", func() int64 { _, live := db.RowVersions(); return live })
	reg.IntGauge("pages_pruned", zonePagesPruned.Load)
	reg.IntGauge("pages_decoded", zonePagesDecoded.Load)
}

// Names lists all table names (base then virtual), sorted.
func (db *Database) Names() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []string
	for _, t := range db.tables {
		out = append(out, t.Name())
	}
	for _, v := range db.virtual {
		out = append(out, v.Name())
	}
	sort.Strings(out)
	return out
}

// Snapshot is an immutable, consistent view of a database's tables pinned at
// one epoch. It implements Catalog, so the SQL layer runs against it exactly
// as it runs against the live database — every query (including multi-table
// joins) observes one state. Virtual tables are not versioned: their rows
// are derived from external stores (the version-control repo, the build
// system) and materialize at read time.
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
// readable afterwards (release only ends retention accounting, it does
// not invalidate the pinned table states).
func (s *Snapshot) Release() {
	if s == nil || s.db == nil {
		return
	}
	if s.released.CompareAndSwap(false, true) {
		s.db.pins.Add(-1)
		s.db.unpin(s.epoch)
	}
}

// unpin retires one per-epoch pin registration. Dropping a pin can only raise
// the oldest-pin floor, so it needs no coordination with GCBelow beyond pinMu.
func (db *Database) unpin(epoch int64) {
	db.pinMu.Lock()
	defer db.pinMu.Unlock()
	if n := db.pinned[epoch]; n <= 1 {
		delete(db.pinned, epoch)
	} else {
		db.pinned[epoch] = n - 1
	}
}

// Table returns the named table's pinned view.
func (s *Snapshot) Table(name string) (*TableSnapshot, bool) {
	v, ok := s.tables[strings.ToLower(name)]
	return v, ok
}

// Reader implements Catalog with the snapshot's epoch visibility.
func (s *Snapshot) Reader(name string) (TableReader, bool) {
	v, ok := s.tables[strings.ToLower(name)]
	if !ok {
		return nil, false
	}
	return v, true
}

// Source implements Catalog.
func (s *Snapshot) Source(name string) (Iterator, error) {
	key := strings.ToLower(name)
	if t, ok := s.tables[key]; ok {
		return NewScan(t), nil
	}
	if v, ok := s.virtual[key]; ok {
		return NewLazyScan(v.Schema(), v.Rows), nil
	}
	return nil, fmt.Errorf("relation: no table %q", name)
}

// SchemaOf implements Catalog.
func (s *Snapshot) SchemaOf(name string) (*Schema, error) {
	key := strings.ToLower(name)
	if t, ok := s.tables[key]; ok {
		return t.Schema(), nil
	}
	if v, ok := s.virtual[key]; ok {
		return v.Schema(), nil
	}
	return nil, fmt.Errorf("relation: no table %q", name)
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

var (
	_ Catalog = (*Database)(nil)
	_ Catalog = (*Snapshot)(nil)
)

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
