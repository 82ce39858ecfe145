package relation

import (
	"fmt"
	"sync/atomic"
)

// Zone maps: per-page column statistics over the append-only row store.
//
// The row store is split into fixed-size pages of ZonePageRows rows. For each
// complete page a PageZone records the born-epoch bounds and, per column, the
// min/max over the non-NULL cells plus the NULL count. A batch scan consults
// the zones through a ZoneFilter compiled from the query predicate and skips
// pages no visible row could possibly pass — before transposing a single
// value.
//
// Soundness (prune-is-conservative, DESIGN §13). Tables are insert-only, so
// every complete page is immutable once published: its rows and born epochs
// never change. A zone is therefore exact for its page under every state and
// every pinned epoch, and a scan whose visible prefix ends inside a page
// reads a subset of the rows the zone bounds — pruning that subset on the
// page's statistics never hides a row that could pass. Visibility itself
// needs no zone: a scan never walks past its visible prefix.
const ZonePageRows = DefaultBatchSize

// ColZone is the per-column statistics of one page.
type ColZone struct {
	// Min and Max bound the non-NULL cells of the page under the Compare
	// total order; both are NULL when the page has no non-NULL cell (any
	// comparison predicate can then skip the page outright).
	Min, Max Value
	// NullCount counts the page's NULL cells.
	NullCount int
}

// PageZone is the zone map of one complete page of ZonePageRows rows.
type PageZone struct {
	MinBorn, MaxBorn int64 // bounds over the page's (immutable) born epochs
	Rows             int   // physical rows in the page (always ZonePageRows in memory)
	Cols             []ColZone
}

// ZoneFilter reports that a page can be skipped: no row inside the zone's
// bounds can satisfy the predicate. It must be conservative — returning
// false is always safe.
type ZoneFilter func(*PageZone) bool

// Scan-instrumentation counters, package-global: /healthz exposes them as
// pages_pruned / pages_decoded gauges so zone-map effectiveness is
// observable in the serving tier.
var (
	zonePagesPruned  atomic.Int64
	zonePagesDecoded atomic.Int64
)

// ScanStats returns the cumulative number of pages skipped via zone maps and
// pages actually transposed by batch scans, process-wide.
func ScanStats() (pruned, decoded int64) {
	return zonePagesPruned.Load(), zonePagesDecoded.Load()
}

// zoneCache is the lazily built, atomically published per-table zone store.
// Pages are append-only: a longer cache is always a strict extension of a
// shorter one, because every statistic derives from immutable data.
type zoneCache struct {
	pages []PageZone
}

// zoneTabler is the internal surface through which a batch scan reaches the
// zone cache of the table backing its read surface.
type zoneTabler interface {
	zoneTable() *Table
}

func (t *Table) zoneTable() *Table         { return t }
func (v *TableSnapshot) zoneTable() *Table { return v.owner }

// zonePages returns zone maps covering every complete page within st's row
// store, building and caching any pages not yet computed. Safe for
// concurrent use: losing a publish race at worst discards work, never
// correctness, since all builders derive identical zones from immutable data.
func (t *Table) zonePages(st *tableState) []PageZone {
	n := len(st.rows) / ZonePageRows
	if n == 0 {
		return nil
	}
	zc := t.zones.Load()
	if zc != nil && len(zc.pages) >= n {
		return zc.pages[:n]
	}
	pages := make([]PageZone, n)
	have := 0
	if zc != nil {
		have = copy(pages, zc.pages)
	}
	for p := have; p < n; p++ {
		pages[p] = buildPageZone(t.schema, st, p)
	}
	t.zones.Store(&zoneCache{pages: pages})
	return pages
}

// buildPageZone computes the zone map of page p from the row store. born is
// nondecreasing, so its bounds are the page's first and last entries.
func buildPageZone(schema *Schema, st *tableState, p int) PageZone {
	lo, hi := p*ZonePageRows, (p+1)*ZonePageRows
	z := PageZone{Rows: ZonePageRows, Cols: make([]ColZone, schema.Len())}
	z.MinBorn, z.MaxBorn = st.born[lo], st.born[hi-1]
	for _, r := range st.rows[lo:hi] {
		for c := range r {
			v := &r[c]
			cz := &z.Cols[c]
			if v.IsNull() {
				cz.NullCount++
				continue
			}
			if cz.Min.IsNull() {
				cz.Min, cz.Max = *v, *v
				continue
			}
			if comparePtr(v, &cz.Min) < 0 {
				cz.Min = *v
			} else if comparePtr(v, &cz.Max) > 0 {
				cz.Max = *v
			}
		}
	}
	return z
}

// InstallZones seeds the zone cache with pages decoded from a persisted
// snapshot, so recovered tables prune without a rebuild pass. pages must
// describe the first len(pages)*ZonePageRows rows of the current row store
// in order — the snapshot loader calls this right after LoadVersions on a
// freshly created table, where the correspondence is exact.
func (t *Table) InstallZones(pages []PageZone) error {
	st := t.state.Load()
	if len(pages)*ZonePageRows > len(st.rows) {
		return fmt.Errorf("table %s: %d zone pages cover %d rows, store has %d",
			t.name, len(pages), len(pages)*ZonePageRows, len(st.rows))
	}
	width := t.schema.Len()
	for i := range pages {
		if len(pages[i].Cols) != width {
			return fmt.Errorf("table %s: zone page %d has %d columns, schema has %d",
				t.name, i, len(pages[i].Cols), width)
		}
		if pages[i].Rows != ZonePageRows {
			return fmt.Errorf("table %s: zone page %d spans %d rows, want %d",
				t.name, i, pages[i].Rows, ZonePageRows)
		}
	}
	t.zones.Store(&zoneCache{pages: pages})
	return nil
}
