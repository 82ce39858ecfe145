package relation

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// RowID identifies a row within a table for the table's lifetime: its
// position in the append-only row store.
type RowID int64

// Table is a heap-resident, insert-only relation with optional secondary
// indexes, stored as an epoch-based multiversion (MVCC) row store:
//
//   - The row slice is append-only and rows are never deleted or rewritten.
//     Every row carries the epoch it was born in, and born is nondecreasing
//     in store order (see tableState), so the rows visible at epoch E are
//     exactly a prefix of the store.
//   - Writers serialize on an internal mutex and publish each change as a new
//     immutable tableState via an atomic pointer.
//   - Readers never read a Table directly: they pin it (Table.At, or
//     Database.Snapshot for every table at one epoch) and read the
//     TableSnapshot, which loads the published state without taking any lock
//     and sees the prefix visible at the pinned epoch — with zero copying. A
//     "latest" read is a pin at the in-flight write epoch
//     (Database.SnapshotLatest).
//
// Epochs advance at commit boundaries (Database.AdvanceEpoch). Rows written
// between commits are stamped with the next epoch, so a committed-epoch
// snapshot never observes a transaction in flight.
type Table struct {
	name   string
	schema *Schema
	epoch  *atomic.Int64 // committed-epoch counter, shared with the owning Database

	mu    sync.Mutex // serializes writers; readers never take it
	state atomic.Pointer[tableState]

	// zones caches per-page zone maps over the append-only prefix of the row
	// store (see zonemap.go). Built lazily by predicate scans, seeded by the
	// snapshot loader; derived purely from immutable data, so it is shared by
	// every state and every pinned snapshot of the table.
	zones atomic.Pointer[zoneCache]

	// memo keeps complete pages' partial aggregates beside their zones
	// (pagememo.go), equally shared by every pin; stats is where it counts
	// its work — the owning Database's, or the table's own.
	memo  aggMemo
	stats *memoStats
}

// tableState is one published version of a table. All slices are append-only
// between states: a newer state may share backing arrays with an older one,
// but entries below a state's length are never mutated after that state is
// published, so a pinned state is immutable and readers need no atomics.
type tableState struct {
	// rows is RowID-indexed; born[id] is the epoch at which row id became
	// visible. born is nondecreasing in store order — the invariant every
	// reader's prefix bound (visibleLen) rests on. Insert stamps the write
	// epoch, which only advances — recovery restores it to the loaded
	// snapshot's epoch (Database.Restore) before any insert; LoadVersions,
	// the one path that appends explicit epochs, refuses a born below the
	// store's last.
	rows []Row
	born []int64

	// Hash indexes. Index entries are added on insert; readers bound
	// candidate RowIDs by their visible prefix. The map is copy-on-write:
	// creating an index publishes a new state with a new map.
	indexes map[string]*HashIndex
}

// NewTable creates an empty table with the given schema. The table gets a
// private epoch counter; tables created through Database.CreateTable share
// the database's counter so one snapshot can pin all tables consistently.
func NewTable(name string, schema *Schema) *Table {
	t := &Table{name: name, schema: schema, epoch: new(atomic.Int64), stats: new(memoStats)}
	t.state.Store(&tableState{indexes: make(map[string]*HashIndex)})
	return t
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *Schema { return t.schema }

// writeEpoch is the epoch stamped on rows born now: the epoch the in-flight
// transaction will publish at its commit boundary.
func (t *Table) writeEpoch() int64 { return t.epoch.Load() + 1 }

// Len returns the number of published rows, committed or not.
func (t *Table) Len() int { return len(t.state.Load().rows) }

// Insert validates and appends a row, maintaining all indexes. It returns
// the new row's RowID. The row becomes visible to committed-epoch snapshots
// once the owning database's epoch advances past the current one.
func (t *Table) Insert(r Row) (RowID, error) {
	valid, err := t.schema.Validate(r)
	if err != nil {
		return 0, fmt.Errorf("table %s: %w", t.name, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.state.Load()
	id := RowID(len(st.rows))
	ns := &tableState{
		rows:    append(st.rows, valid),
		born:    append(st.born, t.writeEpoch()),
		indexes: st.indexes,
	}
	for _, ix := range ns.indexes {
		ix.add(id, valid)
	}
	t.state.Store(ns)
	return id, nil
}

// publishLoaded publishes st extended by a bulk-loaded run of rows and their
// (already appended) born epochs, indexing the run. Callers hold t.mu.
func (t *Table) publishLoaded(st *tableState, rows []Row, born []int64) {
	start := RowID(len(st.rows))
	ns := &tableState{
		rows:    append(st.rows, rows...),
		born:    born,
		indexes: st.indexes,
	}
	for _, ix := range ns.indexes {
		ix.bulkAdd(start, rows)
	}
	t.state.Store(ns)
}

// Versions exposes the published row store verbatim: every version with its
// born epoch, including versions born after the committed epoch. The
// returned slices are the live backing arrays — callers must not mutate
// them. The snapshot writer uses this to persist full MVCC history.
func (t *Table) Versions() (rows []Row, born []int64) {
	st := t.state.Load()
	return st.rows, st.born
}

// LoadVersions bulk-appends rows carrying explicit born epochs — the
// recovery path for version-preserving snapshots. Unlike Insert it does not
// stamp the current write epoch: each version keeps the epoch it had when the
// snapshot was written, so time-travel reads after recovery see exactly the
// history that was persisted. It refuses a born below its predecessor's —
// the store's last, for the first version — which would break the prefix
// invariant every reader relies on.
func (t *Table) LoadVersions(rows []Row, born []int64) error {
	if len(born) != len(rows) {
		return fmt.Errorf("table %s: version arity mismatch: %d rows, %d born", t.name, len(rows), len(born))
	}
	width := t.schema.Len()
	for i, r := range rows {
		if len(r) != width {
			return fmt.Errorf("table %s: row %d arity %d != schema arity %d", t.name, i, len(r), width)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.state.Load()
	prev := int64(0)
	if n := len(st.born); n > 0 {
		prev = st.born[n-1]
	}
	for i, b := range born {
		if b < prev {
			return fmt.Errorf("table %s: version %d born at epoch %d, below its predecessor's %d", t.name, i, b, prev)
		}
		prev = b
	}
	t.publishLoaded(st, rows, append(st.born, born...))
	return nil
}

// visibleLen returns n(epoch), the number of rows visible at epoch: because
// born is nondecreasing in store order, they are exactly rows[:n]. The
// common pin — no row born after it — costs one comparison.
func (s *tableState) visibleLen(epoch int64) int {
	n := len(s.born)
	if n == 0 || s.born[n-1] <= epoch {
		return n
	}
	return sort.Search(n, func(i int) bool { return s.born[i] > epoch })
}

// At pins the table's current state at the given epoch, returning a
// consistent immutable view of the rows visible at it. Most callers want
// Database.Snapshot, which pins every table of a database at one epoch.
func (t *Table) At(epoch int64) *TableSnapshot {
	st := t.state.Load()
	return &TableSnapshot{name: t.name, schema: t.schema, epoch: epoch, st: st, n: st.visibleLen(epoch), owner: t}
}

// CreateHashIndex builds (or returns the existing) hash index over the named
// columns. The index is maintained by subsequent mutations.
func (t *Table) CreateHashIndex(cols ...string) (*HashIndex, error) {
	positions, err := t.resolve(cols)
	if err != nil {
		return nil, err
	}
	key := indexKey(cols)
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.state.Load()
	if ix, ok := st.indexes[key]; ok {
		return ix, nil
	}
	ix := newHashIndex(cols, positions)
	ix.bulkAdd(0, st.rows)
	indexes := make(map[string]*HashIndex, len(st.indexes)+1)
	for k, v := range st.indexes {
		indexes[k] = v
	}
	indexes[key] = ix
	ns := &tableState{rows: st.rows, born: st.born, indexes: indexes}
	t.state.Store(ns)
	return ix, nil
}

func (t *Table) resolve(cols []string) ([]int, error) {
	positions := make([]int, len(cols))
	for i, c := range cols {
		p := t.schema.Index(c)
		if p < 0 {
			return nil, fmt.Errorf("table %s: no column %q", t.name, c)
		}
		positions[i] = p
	}
	return positions, nil
}

func indexKey(cols []string) string {
	out := ""
	for i, c := range cols {
		if i > 0 {
			out += ","
		}
		out += c
	}
	return out
}

// TableSnapshot is an immutable view of one table pinned at one epoch: the
// first n rows of the pinned state. It is the only table read surface — the
// SQL planner, the pivot engine, hindsight replay and every other reader
// operate on it. All methods are lock-free and safe for concurrent use; none
// of them copy the row store.
type TableSnapshot struct {
	name   string
	schema *Schema
	epoch  int64
	st     *tableState
	n      int // rows visible at epoch: st.visibleLen(epoch), found once per pin
	// owner is the table the snapshot was pinned from; batch scans reach the
	// shared zone-map cache through it (zone maps derive from immutable data,
	// so sharing them across snapshots of any epoch is sound).
	owner *Table
}

// Name returns the table name.
func (v *TableSnapshot) Name() string { return v.name }

// Schema returns the table schema.
func (v *TableSnapshot) Schema() *Schema { return v.schema }

// Epoch returns the epoch the view is pinned at.
func (v *TableSnapshot) Epoch() int64 { return v.epoch }

// Len returns the number of rows visible in the view.
func (v *TableSnapshot) Len() int { return v.n }

// Scan calls fn for each visible row in insertion order; returning false
// stops the scan. The row must not be mutated.
func (v *TableSnapshot) Scan(fn func(id RowID, r Row) bool) {
	for id, r := range v.Rows() {
		if !fn(RowID(id), r) {
			return
		}
	}
}

// Get returns the row with the given id if it is visible in the view. The
// returned row must not be mutated.
func (v *TableSnapshot) Get(id RowID) (Row, bool) {
	if id < 0 || int(id) >= v.n {
		return nil, false
	}
	return v.st.rows[id], true
}

// Rows returns the visible rows in insertion order. The slice shares the
// row store and must not be mutated.
func (v *TableSnapshot) Rows() []Row { return v.st.rows[:v.n:v.n] }

// RowsByIDs returns the visible rows among ids in the given order. Index
// access paths use it to resolve the candidate ids an index lookup produced.
func (v *TableSnapshot) RowsByIDs(ids []RowID) []Row {
	out := make([]Row, 0, len(ids))
	for _, id := range ids {
		if r, ok := v.Get(id); ok {
			out = append(out, r)
		}
	}
	return out
}

// HashIndexOn returns the hash index over the given columns, if present.
// Lookups return candidate ids; resolve them through Get or RowsByIDs.
func (v *TableSnapshot) HashIndexOn(cols ...string) (*HashIndex, bool) {
	ix, ok := v.st.indexes[indexKey(cols)]
	return ix, ok
}

// HashIndexColumns lists the column sets of the table's hash indexes, sorted
// widest-first so planners can prefer the most selective covering index.
func (v *TableSnapshot) HashIndexColumns() [][]string {
	out := make([][]string, 0, len(v.st.indexes))
	for _, ix := range v.st.indexes {
		out = append(out, append([]string(nil), ix.cols...))
	}
	sort.Slice(out, func(a, b int) bool {
		if len(out[a]) != len(out[b]) {
			return len(out[a]) > len(out[b])
		}
		return indexKey(out[a]) < indexKey(out[b])
	})
	return out
}

// HashIndex is an equality index over one or more columns. Buckets hold a
// pointer to their id slice so the hot add path appends through the pointer
// without allocating a string key per insertion. One index serves every
// epoch: MVCC readers bound candidate ids by their visible prefix.
type HashIndex struct {
	mu        sync.RWMutex
	cols      []string
	positions []int
	buckets   map[string]*[]RowID
	keyBuf    []byte // reused under mu for add key building
}

func newHashIndex(cols []string, positions []int) *HashIndex {
	return &HashIndex{
		cols:      append([]string(nil), cols...),
		positions: positions,
		buckets:   make(map[string]*[]RowID),
	}
}

// Columns returns the indexed column names.
func (ix *HashIndex) Columns() []string { return append([]string(nil), ix.cols...) }

// appendRowKey builds the bucket key for a row into dst. Callers must hold
// ix.mu when dst is ix.keyBuf.
func (ix *HashIndex) appendRowKey(dst []byte, r Row) []byte {
	for _, p := range ix.positions {
		dst = r[p].appendKey(dst)
		dst = append(dst, '\x1f')
	}
	return dst
}

// bulkAdd indexes a contiguous run of rows (ids start, start+1, ...) under
// one lock acquisition, reusing the key buffer across rows.
func (ix *HashIndex) bulkAdd(start RowID, rows []Row) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for i, r := range rows {
		ix.addLocked(start+RowID(i), r)
	}
}

func (ix *HashIndex) add(id RowID, r Row) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.addLocked(id, r)
}

func (ix *HashIndex) addLocked(id RowID, r Row) {
	ix.keyBuf = ix.appendRowKey(ix.keyBuf[:0], r)
	ids, ok := ix.buckets[string(ix.keyBuf)] // lookup via []byte key does not allocate
	if !ok {
		ids = new([]RowID)
		ix.buckets[string(ix.keyBuf)] = ids
	}
	*ids = append(*ids, id)
}

// Lookup returns the RowIDs whose indexed columns equal the given values.
// The ids are candidates: callers must resolve them through a TableSnapshot
// (Get or RowsByIDs) because rows born after a pinned epoch are indexed too.
func (ix *HashIndex) Lookup(vals ...Value) []RowID {
	if len(vals) != len(ix.positions) {
		return nil
	}
	var arr [64]byte
	k := arr[:0]
	for _, v := range vals {
		k = v.AppendKey(k)
		k = append(k, '\x1f')
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	ids, ok := ix.buckets[string(k)] // string(k) in a map index does not allocate
	if !ok || len(*ids) == 0 {
		return nil
	}
	return append([]RowID(nil), *ids...)
}
