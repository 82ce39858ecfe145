package repl

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	flor "flordb"
	"flordb/internal/storage"
)

// Primary serves a session's sealed WAL segments, snapshots, and checkpoint
// blobs to followers, and tracks follower acks so compaction never deletes
// a segment a live follower still needs.
//
// All served files are immutable: the active WAL file is never shipped, so
// the primary needs no coordination with committers beyond reading the
// directory listing. CRCs are computed once per (seq, size) and cached.
type Primary struct {
	sess *flor.Session
	// FollowerTTL bounds how long a silent follower pins segments via the
	// retention floor (default 30s). A follower that has not polled within
	// the TTL is presumed dead; RetainSegments still gives late joiners a
	// catch-up window.
	FollowerTTL time.Duration
	// LongPollInterval is how often a long-polling manifest request rechecks
	// the directory for new seals (default 200ms).
	LongPollInterval time.Duration

	blobs *storage.BlobStore

	mu        sync.Mutex
	followers map[string]followerAck
	crcs      map[int64]crcEntry  // sealed-segment CRC cache
	snapCRCs  map[string]crcEntry // snapshot CRC cache, keyed by path

	shipped atomic.Int64 // segments fully streamed to a follower
}

type followerAck struct {
	acked int64 // highest segment seq the follower has applied
	epoch int64 // highest commit epoch the follower has applied
	seen  time.Time
}

type crcEntry struct {
	size int64
	crc  uint32
}

// NewPrimary builds the shipping service for a writable session and installs
// its retention floor on the session's compactor, so `SetRetainFloor` keeps
// unshipped segments alive.
func NewPrimary(sess *flor.Session, blobs *storage.BlobStore) *Primary {
	p := &Primary{
		sess:      sess,
		blobs:     blobs,
		followers: make(map[string]followerAck),
		crcs:      make(map[int64]crcEntry),
		snapCRCs:  make(map[string]crcEntry),
	}
	sess.SetRetainFloor(p.RetainFloor)
	sess.SetEpochAckFloor(p.EpochFloor)
	reg := sess.Metrics()
	reg.IntGauge("repl_segments_shipped", p.shipped.Load)
	reg.IntGauge("repl_followers", p.liveFollowers)
	return p
}

// liveFollowers counts followers that polled within the TTL (the
// repl_followers gauge).
func (p *Primary) liveFollowers() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var live int64
	ttl := p.followerTTL()
	for _, f := range p.followers {
		if time.Since(f.seen) <= ttl {
			live++
		}
	}
	return live
}

func (p *Primary) followerTTL() time.Duration {
	if p.FollowerTTL > 0 {
		return p.FollowerTTL
	}
	return 30 * time.Second
}

func (p *Primary) pollInterval() time.Duration {
	if p.LongPollInterval > 0 {
		return p.LongPollInterval
	}
	return 200 * time.Millisecond
}

// RetainFloor returns the lowest sealed-segment sequence a fresh follower
// has not yet acked (acked+1), or MaxInt64 when no fresh follower exists —
// the contract Session.SetRetainFloor expects.
func (p *Primary) RetainFloor() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	floor := int64(math.MaxInt64)
	ttl := p.followerTTL()
	for id, f := range p.followers {
		if time.Since(f.seen) > ttl {
			delete(p.followers, id)
			continue
		}
		if f.acked+1 < floor {
			floor = f.acked + 1
		}
	}
	return floor
}

// EpochFloor returns the lowest commit epoch a fresh follower has applied,
// or MaxInt64 when no fresh follower exists — the contract
// Session.SetEpochAckFloor expects. Epoch-retention GC clamps to it so
// history a lagging replica still needs for AS OF answers is not reclaimed
// out from under it.
func (p *Primary) EpochFloor() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	floor := int64(math.MaxInt64)
	ttl := p.followerTTL()
	for id, f := range p.followers {
		if time.Since(f.seen) > ttl {
			delete(p.followers, id)
			continue
		}
		if f.epoch < floor {
			floor = f.epoch
		}
	}
	return floor
}

// recordAck notes a follower poll: its identity, its applied-through
// sequence and epoch, and freshness for the retention floors.
func (p *Primary) recordAck(id string, acked, epoch int64) {
	if id == "" {
		return
	}
	p.mu.Lock()
	p.followers[id] = followerAck{acked: acked, epoch: epoch, seen: time.Now()}
	p.mu.Unlock()
}

// Routes returns the handler serving the /repl/ endpoints; mount it on the
// API server with Server.Handle("/repl/", p.Routes()).
func (p *Primary) Routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathManifest, p.handleManifest)
	mux.HandleFunc(PathSegment, p.handleSegment)
	mux.HandleFunc(PathSnapshot, p.handleSnapshot)
	mux.HandleFunc(PathBlob, p.handleBlob)
	return mux
}

// buildManifest lists the sealed segments and newest snapshot with cached
// CRCs. Listing and stamping race benignly with sealing and compaction: a
// file deleted between list and stat is simply dropped from the manifest,
// and a follower always re-validates against a fresh manifest on retry.
func (p *Primary) buildManifest() (*Manifest, error) {
	walPath := p.sess.WALPath()
	segs, err := storage.ListSegments(walPath)
	if err != nil {
		return nil, err
	}
	m := &Manifest{Project: p.sess.ProjID, Tstamp: p.sess.Tstamp()}
	for _, sg := range segs {
		e, err := p.stampSegment(sg)
		if err != nil {
			continue // deleted mid-listing; the next poll re-lists
		}
		m.Segments = append(m.Segments, e)
	}
	snaps, err := storage.ListSnapshots(walPath)
	if err != nil {
		return nil, err
	}
	if len(snaps) > 0 {
		newest := snaps[len(snaps)-1]
		if e, err := p.stampSnapshot(newest); err == nil {
			m.Snapshot = &e
		}
	}
	return m, nil
}

func (p *Primary) stampSegment(sg storage.Segment) (FileEntry, error) {
	p.mu.Lock()
	if c, ok := p.crcs[sg.Seq]; ok {
		p.mu.Unlock()
		return FileEntry{Seq: sg.Seq, Size: c.size, CRC32C: c.crc}, nil
	}
	p.mu.Unlock()
	crc, size, err := storage.FileCRC32C(sg.Path)
	if err != nil {
		return FileEntry{}, err
	}
	p.mu.Lock()
	p.crcs[sg.Seq] = crcEntry{size: size, crc: crc}
	p.mu.Unlock()
	return FileEntry{Seq: sg.Seq, Size: size, CRC32C: crc}, nil
}

func (p *Primary) stampSnapshot(sf storage.SnapshotFile) (FileEntry, error) {
	p.mu.Lock()
	if c, ok := p.snapCRCs[sf.Path]; ok {
		p.mu.Unlock()
		return FileEntry{Seq: sf.Seq, Size: c.size, CRC32C: c.crc}, nil
	}
	p.mu.Unlock()
	crc, size, err := storage.FileCRC32C(sf.Path)
	if err != nil {
		return FileEntry{}, err
	}
	p.mu.Lock()
	p.snapCRCs[sf.Path] = crcEntry{size: size, crc: crc}
	p.mu.Unlock()
	return FileEntry{Seq: sf.Seq, Size: size, CRC32C: crc}, nil
}

// handleManifest serves GET /repl/manifest. Query parameters:
//
//	follower=id  — follower identity for ack tracking
//	acked=N      — highest segment the follower has applied (retention floor)
//	epoch=E      — highest commit epoch the follower has applied (GC floor)
//	have=N       — long-poll: block until a segment with Seq > N is sealed
//	wait_ms=M    — long-poll budget (capped at 30s; 0 = answer immediately)
func (p *Primary) handleManifest(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if acked, err := strconv.ParseInt(q.Get("acked"), 10, 64); err == nil {
		epoch, eerr := strconv.ParseInt(q.Get("epoch"), 10, 64)
		if eerr != nil {
			// Pre-epoch follower: report MaxInt64 so it never drags the GC
			// floor (segment retention still protects its catch-up).
			epoch = math.MaxInt64
		}
		p.recordAck(q.Get("follower"), acked, epoch)
	}
	have, _ := strconv.ParseInt(q.Get("have"), 10, 64)
	waitMs, _ := strconv.ParseInt(q.Get("wait_ms"), 10, 64)
	if waitMs > 30_000 {
		waitMs = 30_000
	}
	deadline := time.Now().Add(time.Duration(waitMs) * time.Millisecond)
	for {
		m, err := p.buildManifest()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if m.MaxSeq() > have || waitMs <= 0 || !time.Now().Before(deadline) {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(m)
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-time.After(p.pollInterval()):
		}
	}
}

// handleSegment streams one sealed segment. http.ServeFile supplies Range
// support (resumable fetches); the full-file CRC and size ride in headers so
// the follower can verify the assembled file whatever ranges built it.
func (p *Primary) handleSegment(w http.ResponseWriter, r *http.Request) {
	seq, err := strconv.ParseInt(r.URL.Query().Get("seq"), 10, 64)
	if err != nil || seq <= 0 {
		http.Error(w, "bad or missing ?seq", http.StatusBadRequest)
		return
	}
	sg := storage.Segment{Seq: seq, Path: storage.SegmentPath(p.sess.WALPath(), seq)}
	e, err := p.stampSegment(sg)
	if err != nil {
		http.Error(w, "no such segment", http.StatusNotFound)
		return
	}
	p.serveFile(w, r, sg.Path, e)
	p.shipped.Add(1)
}

// handleSnapshot streams one table snapshot by coverage sequence.
func (p *Primary) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	seq, err := strconv.ParseInt(r.URL.Query().Get("seq"), 10, 64)
	if err != nil || seq <= 0 {
		http.Error(w, "bad or missing ?seq", http.StatusBadRequest)
		return
	}
	path := storage.SnapshotPath(p.sess.WALPath(), seq)
	e, err := p.stampSnapshot(storage.SnapshotFile{Seq: seq, Path: path})
	if err != nil {
		http.Error(w, "no such snapshot", http.StatusNotFound)
		return
	}
	p.serveFile(w, r, path, e)
}

func (p *Primary) serveFile(w http.ResponseWriter, r *http.Request, path string, e FileEntry) {
	w.Header().Set(headerCRC, strconv.FormatUint(uint64(e.CRC32C), 10))
	w.Header().Set(headerSize, strconv.FormatInt(e.Size, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	http.ServeFile(w, r, path)
}

// handleBlob streams one checkpoint blob by its content hash. The key is
// the sha256 of the content, so the follower re-derives it on Put and gets
// integrity verification for free — no extra CRC needed.
func (p *Primary) handleBlob(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		http.Error(w, "missing ?key", http.StatusBadRequest)
		return
	}
	if p.blobs == nil {
		http.Error(w, "no blob store", http.StatusNotFound)
		return
	}
	data, err := p.blobs.Get(key)
	if err != nil {
		http.Error(w, "no such blob", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data)
}
