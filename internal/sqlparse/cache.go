package sqlparse

import (
	"sync"

	"flordb/internal/metrics"
)

// PlanCache is a bounded LRU cache of parsed statements keyed by query text.
// Serving workloads issue the same dashboard and feedback-UI queries over and
// over against fresh snapshots; caching the parse (lex + parse + AST build)
// removes it from the per-request path. Cached statements are immutable —
// Execute never mutates a *SelectStmt — so one entry may be executed by many
// goroutines concurrently, each against its own snapshot.
//
// Access paths are deliberately NOT cached: they bind to a specific table
// state (index choice depends on live statistics, and iterators pin rows),
// so planning re-runs per execution against the caller's catalog. Planning
// is a few map lookups per table; parsing dominates.
type PlanCache struct {
	mu    sync.Mutex
	cap   int
	items map[string]*cacheEntry
	head  *cacheEntry // most recently used
	tail  *cacheEntry // least recently used

	hits   uint64
	misses uint64
}

type cacheEntry struct {
	key        string
	stmt       *SelectStmt
	prev, next *cacheEntry
}

// DefaultPlanCacheSize bounds a session's plan cache when the caller does not
// choose a size.
const DefaultPlanCacheSize = 256

// NewPlanCache creates a cache holding at most capacity parsed statements
// (capacity <= 0 applies DefaultPlanCacheSize).
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		capacity = DefaultPlanCacheSize
	}
	return &PlanCache{cap: capacity, items: make(map[string]*cacheEntry, capacity)}
}

// Parse returns the parsed statement for the query text, consulting the
// cache first. Parse errors are not cached (they are cheap to reproduce and
// callers rarely retry identical garbage) and do not count as misses — the
// miss counter measures cache effectiveness on parseable queries, not input
// quality. AS OF statements are parsed but never inserted: their epoch (or
// timestamp) literal makes the raw text near-unique per request, and caching
// them would evict the hot dashboard queries the cache exists for.
func (c *PlanCache) Parse(query string) (*SelectStmt, error) {
	c.mu.Lock()
	if e, ok := c.items[query]; ok {
		c.moveToFront(e)
		c.hits++
		stmt := e.stmt
		c.mu.Unlock()
		return stmt, nil
	}
	c.mu.Unlock()

	stmt, err := Parse(query)
	if err != nil {
		return nil, err
	}
	if stmt.AsOf != nil {
		// Time-travel statements bypass the cache entirely: no insert, no
		// stats. The parse is the price of the unique literal.
		return stmt, nil
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[query]; ok { // raced with another parser; keep theirs
		c.moveToFront(e)
		c.hits++
		return e.stmt, nil
	}
	c.misses++
	e := &cacheEntry{key: query, stmt: stmt}
	c.items[query] = e
	c.pushFront(e)
	if len(c.items) > c.cap {
		c.evictTail()
	}
	return stmt, nil
}

// Stats reports cache hits and misses since creation.
func (c *PlanCache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// RegisterMetrics publishes the cache's effectiveness as polled gauges; an
// untouched cache reports a hit rate of 0.
func (c *PlanCache) RegisterMetrics(reg *metrics.Registry) {
	reg.IntGauge("plan_cache_hits", func() int64 { hits, _ := c.Stats(); return int64(hits) })
	reg.IntGauge("plan_cache_misses", func() int64 { _, misses := c.Stats(); return int64(misses) })
	reg.Gauge("plan_cache_hit_rate", func() float64 {
		hits, misses := c.Stats()
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	})
}

// Len returns the number of cached statements.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

func (c *PlanCache) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *PlanCache) moveToFront(e *cacheEntry) {
	if c.head == e {
		return
	}
	// Unlink.
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	if c.tail == e {
		c.tail = e.prev
	}
	c.pushFront(e)
}

func (c *PlanCache) evictTail() {
	e := c.tail
	if e == nil {
		return
	}
	if e.prev != nil {
		e.prev.next = nil
	}
	c.tail = e.prev
	if c.head == e {
		c.head = nil
	}
	delete(c.items, e.key)
}
