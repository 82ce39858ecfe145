package repl

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	flor "flordb"
	"flordb/internal/record"
	"flordb/internal/storage"
)

// Hooks are crash-injection points for the replica kill matrix: each hook
// may return an error to abort at exactly that step, simulating a follower
// killed mid-fetch, mid-install, or mid-apply. All nil in production.
type Hooks struct {
	// FetchChunk fires after each chunk of a fetched file hits the temp
	// file; bytesSoFar counts from the start of the file, including any
	// resumed prefix.
	FetchChunk func(kind string, seq int64, bytesSoFar int64) error
	// BeforeInstall fires once the temp file is complete and fsynced, before
	// the rename into place.
	BeforeInstall func(kind string, seq int64) error
	// AfterInstall fires after the rename + directory sync, before the
	// segment is replayed into the replica's tables.
	AfterInstall func(kind string, seq int64) error
	// AfterApply fires after a segment's epochs are published.
	AfterApply func(seq int64) error
}

// FollowerConfig configures a tailing replica.
type FollowerConfig struct {
	PrimaryURL string // base URL of the primary's API server
	Dir        string // local project directory (mirrors the primary's layout)
	ProjID     string
	FollowerID string // identity reported for ack tracking (default: host:dir derived)

	// MaxLagEpochs bounds staleness by logical distance: when the primary's
	// tstamp leads the replica's by more than this, Gate refuses reads with
	// 503 until catch-up. 0 = no bound.
	MaxLagEpochs int64
	// MaxFetchAge bounds staleness by time since the last successful primary
	// contact. 0 = no bound.
	MaxFetchAge time.Duration
	// PollWait is the long-poll budget per manifest request (default 10s).
	PollWait time.Duration
	// ChunkBytes sizes fetch copy chunks (default 256KiB; tests use 1 to
	// exercise per-byte kill points).
	ChunkBytes int
	Backoff    Backoff
	Client     *http.Client
	Logf       func(format string, args ...any) // replication progress log (nil = silent)
	Open       flor.Options                     // options for the replica session
	Hooks      Hooks
}

// Follower tails a primary: it bootstraps from the primary's newest snapshot
// when the local directory is empty, then fetches, verifies, installs, and
// applies each newly sealed segment, publishing MVCC epochs as it goes. All
// durable state lands in the same file layout the primary uses, so crash
// recovery is the ordinary session-open path.
type Follower struct {
	cfg     FollowerConfig
	sess    *flor.Session
	blobs   *storage.BlobStore
	walPath string

	applied     atomic.Int64 // highest segment replayed into tables
	lastSeenMax atomic.Int64 // highest seal ever observed in a manifest
	primaryTs   atomic.Int64 // primary's tstamp at the last manifest
	lastFetch   atomic.Int64 // unix seconds of the last successful primary contact
	fetched     atomic.Int64 // segments fetched + applied by this process

	mu    sync.Mutex
	fault error // permanent fault; serving is refused once set
}

// StartFollower bootstraps (seeding from the primary's snapshot when the
// local directory holds no history yet) and opens the replica session. The
// returned Follower is not yet tailing — call Run.
func StartFollower(ctx context.Context, cfg FollowerConfig) (*Follower, error) {
	if cfg.PrimaryURL == "" {
		return nil, errors.New("repl: follower needs a primary URL")
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.PollWait <= 0 {
		cfg.PollWait = 10 * time.Second
	}
	if cfg.ChunkBytes <= 0 {
		cfg.ChunkBytes = 256 << 10
	}
	if cfg.FollowerID == "" {
		host, _ := os.Hostname()
		cfg.FollowerID = host + ":" + cfg.Dir
	}
	florDir := filepath.Join(cfg.Dir, ".flor")
	if err := os.MkdirAll(florDir, 0o755); err != nil {
		return nil, fmt.Errorf("repl: %w", err)
	}
	f := &Follower{cfg: cfg, walPath: filepath.Join(florDir, "flor.wal")}

	blobs, err := storage.NewBlobStore(filepath.Join(florDir, "objects"))
	if err != nil {
		return nil, err
	}
	f.blobs = blobs

	if err := f.bootstrap(ctx); err != nil {
		return nil, err
	}
	sess, err := flor.OpenReplica(cfg.Dir, cfg.ProjID, cfg.Open)
	if err != nil {
		return nil, err
	}
	f.sess = sess
	f.applied.Store(f.localHighWater())
	reg := sess.Metrics()
	reg.IntGauge("replica", func() int64 { return 1 })
	reg.IntGauge("replica_lag_epochs", f.Lag)
	reg.IntGauge("replica_last_fetch_unix", f.lastFetch.Load)
	reg.IntGauge("repl_segments_shipped", f.fetched.Load)
	reg.IntGauge("repl_applied_seq", f.applied.Load)
	return f, nil
}

// Session exposes the replica session for serving reads (and for Promote).
func (f *Follower) Session() *flor.Session { return f.sess }

// Applied returns the highest segment sequence replayed into the replica.
func (f *Follower) Applied() int64 { return f.applied.Load() }

// Close closes the replica session.
func (f *Follower) Close() error { return f.sess.Close() }

// Fault returns the permanent replication fault, if any.
func (f *Follower) Fault() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fault
}

func (f *Follower) setFault(err error) {
	f.mu.Lock()
	if f.fault == nil {
		f.fault = err
	}
	f.mu.Unlock()
}

func (f *Follower) logf(format string, args ...any) {
	if f.cfg.Logf != nil {
		f.cfg.Logf(format, args...)
	}
}

// Lag returns the replica's logical distance behind the primary as of the
// last manifest (0 before first contact, never negative).
func (f *Follower) Lag() int64 {
	lag := f.primaryTs.Load() - f.sess.Tstamp()
	if lag < 0 {
		lag = 0
	}
	return lag
}

// Gate is the staleness bound for the serving path: it refuses reads (the
// server turns the error into 503 + Retry-After) when the replica is
// permanently faulted, lagging beyond MaxLagEpochs, or out of contact
// longer than MaxFetchAge.
func (f *Follower) Gate() error {
	if err := f.Fault(); err != nil {
		return err
	}
	if f.cfg.MaxLagEpochs > 0 {
		if lag := f.Lag(); lag > f.cfg.MaxLagEpochs {
			return fmt.Errorf("replica lagging %d epochs behind primary (max %d)", lag, f.cfg.MaxLagEpochs)
		}
	}
	if f.cfg.MaxFetchAge > 0 {
		last := f.lastFetch.Load()
		if last == 0 {
			return errors.New("replica has not contacted the primary yet")
		}
		if age := time.Since(time.Unix(last, 0)); age > f.cfg.MaxFetchAge {
			return fmt.Errorf("replica out of contact with primary for %v (max %v)", age.Round(time.Second), f.cfg.MaxFetchAge)
		}
	}
	return nil
}

// localHighWater returns the highest history sequence already installed
// locally: the newest snapshot's coverage or the newest sealed segment,
// whichever is higher. OpenReplica has already verified contiguity.
func (f *Follower) localHighWater() int64 {
	var hw int64
	if segs, err := storage.ListSegments(f.walPath); err == nil && len(segs) > 0 {
		hw = segs[len(segs)-1].Seq
	}
	if snaps, err := storage.ListSnapshots(f.walPath); err == nil && len(snaps) > 0 {
		if s := snaps[len(snaps)-1].Seq; s > hw {
			hw = s
		}
	}
	return hw
}

// bootstrap seeds an empty local directory from the primary's newest
// snapshot, so a cold follower starts O(live data) behind instead of
// replaying total history. A directory that already holds history skips
// straight to tailing. Retries with backoff until the primary answers or
// ctx expires.
func (f *Follower) bootstrap(ctx context.Context) error {
	if f.localHighWater() > 0 {
		return nil
	}
	bo := f.cfg.Backoff
	for {
		m, err := f.fetchManifest(ctx, 0, 0)
		if err == nil {
			if m.Snapshot == nil {
				return nil // young primary: full history fits in segments
			}
			return f.fetchAndInstall(ctx, "snapshot", m.Snapshot.Seq,
				storage.SnapshotPath(f.walPath, m.Snapshot.Seq), *m.Snapshot, PathSnapshot)
		}
		var fe *FaultError
		if errors.As(err, &fe) {
			return err
		}
		d := bo.Next()
		f.logf("repl: bootstrap: %v (retrying in %v)", err, d.Round(time.Millisecond))
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(d):
		}
	}
}

// Run tails the primary until ctx is canceled or a permanent fault is hit.
// Transient errors (network, primary restarting) retry with jittered
// exponential backoff; any successful step resets the streak.
func (f *Follower) Run(ctx context.Context) error {
	bo := f.cfg.Backoff
	// The first poll returns immediately instead of long-polling, so a
	// freshly started replica establishes contact (and its lag gauge, which
	// gates reads) without waiting out a full PollWait.
	wait := time.Duration(0)
	for {
		if ctx.Err() != nil {
			return nil
		}
		if err := f.Fault(); err != nil {
			return err
		}
		err := f.stepWait(ctx, wait)
		wait = f.cfg.PollWait
		if err == nil {
			bo.Reset()
			continue
		}
		var fe *FaultError
		if errors.As(err, &fe) {
			f.logf("repl: %v", err)
			return err
		}
		if ctx.Err() != nil {
			return nil
		}
		d := bo.Next()
		f.logf("repl: follower: %v (retrying in %v)", err, d.Round(time.Millisecond))
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(d):
		}
	}
}

// step performs one long-poll + catch-up cycle. A permanent fault is
// recorded here (not in Run) so the replica starts refusing reads no matter
// what drives the loop.
func (f *Follower) step(ctx context.Context) error {
	return f.stepWait(ctx, f.cfg.PollWait)
}

func (f *Follower) stepWait(ctx context.Context, wait time.Duration) error {
	m, err := f.fetchManifest(ctx, f.applied.Load(), wait)
	if err != nil {
		return err
	}
	err = f.catchUp(ctx, m)
	var fe *FaultError
	if errors.As(err, &fe) {
		f.setFault(err)
	}
	return err
}

// catchUp fetches and applies every sealed segment the manifest lists past
// the replica's applied high-water mark, verifying contiguity: needing
// segment N and being offered only newer ones means the primary compacted
// away history this replica never saw, and serving from the resulting state
// would silently drop committed transactions — a permanent fault instead.
func (f *Follower) catchUp(ctx context.Context, m *Manifest) error {
	if m.Project != f.cfg.ProjID {
		return faultf("primary serves project %q, follower replicates %q", m.Project, f.cfg.ProjID)
	}
	if ts := f.sess.Tstamp(); m.Tstamp < ts {
		return faultf("primary at tstamp %d has less history than this replica at %d; refusing to follow a shrunken history", m.Tstamp, ts)
	}
	if mx := m.MaxSeq(); mx > f.lastSeenMax.Load() {
		f.lastSeenMax.Store(mx)
	}
	f.primaryTs.Store(m.Tstamp)
	f.lastFetch.Store(time.Now().Unix())

	for next := f.applied.Load() + 1; next <= m.MaxSeq(); next++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		entry, ok := findSeq(m.Segments, next)
		if !ok {
			return faultf("segment gap: replica needs segment %d but the primary now starts at %d — history was compacted past this replica", next, m.MinSeq())
		}
		if err := f.replicateSegment(ctx, entry); err != nil {
			return err
		}
		f.applied.Store(next)
		f.fetched.Add(1)
		f.lastFetch.Store(time.Now().Unix())
		f.logf("repl: applied segment %d (tstamp %d)", next, f.sess.Tstamp())
	}
	return nil
}

func findSeq(entries []FileEntry, seq int64) (FileEntry, bool) {
	for _, e := range entries {
		if e.Seq == seq {
			return e, true
		}
	}
	return FileEntry{}, false
}

// replicateSegment runs the fetch → verify → install → prefetch-blobs →
// apply pipeline for one sealed segment.
func (f *Follower) replicateSegment(ctx context.Context, e FileEntry) error {
	dst := storage.SegmentPath(f.walPath, e.Seq)
	if err := f.fetchAndInstall(ctx, "segment", e.Seq, dst, e, PathSegment); err != nil {
		return err
	}
	// Checkpoint records reference blobs by content hash; the blob bytes
	// travel outside the WAL. Fetch what the segment needs before applying,
	// or the replica's obj_store would silently miss rows the primary has.
	if err := f.prefetchBlobs(ctx, dst); err != nil {
		return err
	}
	if err := f.sess.ApplyReplicatedSegment(e.Seq); err != nil {
		// The installed file passed CRC but does not replay cleanly (torn
		// or tampered content that happens to checksum): never serveable.
		return faultf("segment %d installed but failed to apply: %v", e.Seq, err)
	}
	if f.cfg.Hooks.AfterApply != nil {
		if err := f.cfg.Hooks.AfterApply(e.Seq); err != nil {
			return err
		}
	}
	return nil
}

// fetchAndInstall downloads one immutable file into place with the same
// durability discipline the primary's own writers use: temp file, fsync,
// rename, directory fsync. Partial temp files resume with a Range request;
// the assembled file must match the manifest's size and CRC-32C. A mismatch
// after a resumed fetch gets one clean full refetch (the local partial may
// have been torn by a crash); a mismatch on a clean fetch — or twice — is a
// permanent fault.
func (f *Follower) fetchAndInstall(ctx context.Context, kind string, seq int64, dst string, want FileEntry, wirePath string) error {
	if st, err := os.Stat(dst); err == nil {
		// Already installed (crash between install and apply, or a re-run).
		// Immutability means it must match the manifest exactly.
		crc, _, cerr := storage.FileCRC32C(dst)
		if cerr == nil && st.Size() == want.Size && crc == want.CRC32C {
			return nil
		}
		return faultf("%s %d already exists locally but does not match the primary (size %d vs %d): immutable history diverged", kind, seq, st.Size(), want.Size)
	}
	tmp := dst + ".repltmp"
	resumed, err := f.fetchToTemp(ctx, kind, seq, tmp, want, wirePath, true)
	if err != nil {
		return err
	}
	ok, err := verifyFile(tmp, want)
	if err != nil {
		return err
	}
	if !ok && resumed {
		// The resumed-over partial may be torn; one full refetch heals it.
		if err := os.Remove(tmp); err != nil {
			return fmt.Errorf("repl: drop torn temp: %w", err)
		}
		if _, err := f.fetchToTemp(ctx, kind, seq, tmp, want, wirePath, false); err != nil {
			return err
		}
		if ok, err = verifyFile(tmp, want); err != nil {
			return err
		}
	}
	if !ok {
		os.Remove(tmp)
		return faultf("%s %d: CRC mismatch against the primary's manifest after a clean fetch — corrupt transfer or tampered history", kind, seq)
	}
	if err := fsyncFile(tmp); err != nil {
		return err
	}
	if f.cfg.Hooks.BeforeInstall != nil {
		if err := f.cfg.Hooks.BeforeInstall(kind, seq); err != nil {
			return err
		}
	}
	if err := os.Rename(tmp, dst); err != nil {
		return fmt.Errorf("repl: install %s %d: %w", kind, seq, err)
	}
	if err := storage.SyncDir(filepath.Dir(dst)); err != nil {
		return err
	}
	if f.cfg.Hooks.AfterInstall != nil {
		if err := f.cfg.Hooks.AfterInstall(kind, seq); err != nil {
			return err
		}
	}
	return nil
}

// fetchToTemp streams one file into tmp, resuming from an existing partial
// when allowResume is set. It reports whether the fetch resumed.
func (f *Follower) fetchToTemp(ctx context.Context, kind string, seq int64, tmp string, want FileEntry, wirePath string, allowResume bool) (resumed bool, err error) {
	var start int64
	if allowResume {
		if st, serr := os.Stat(tmp); serr == nil {
			if st.Size() == want.Size {
				// A crash after the last byte left a complete temp file;
				// asking for bytes=size- would only earn a 416. Skip the
				// fetch — verification decides whether it's usable.
				return true, nil
			}
			if st.Size() > 0 && st.Size() < want.Size {
				start = st.Size()
			} else if rerr := os.Remove(tmp); rerr != nil {
				return false, fmt.Errorf("repl: drop oversized temp: %w", rerr)
			}
		}
	}
	u := f.cfg.PrimaryURL + wirePath + "?seq=" + strconv.FormatInt(seq, 10)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return false, err
	}
	if start > 0 {
		req.Header.Set("Range", "bytes="+strconv.FormatInt(start, 10)+"-")
	}
	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		start = 0 // server ignored the range; restart the file
	case http.StatusPartialContent:
	case http.StatusNotFound:
		return false, fmt.Errorf("repl: primary no longer has %s %d", kind, seq)
	default:
		return false, fmt.Errorf("repl: fetch %s %d: %s", kind, seq, resp.Status)
	}
	flags := os.O_CREATE | os.O_WRONLY
	if start > 0 {
		flags |= os.O_APPEND
	} else {
		flags |= os.O_TRUNC
	}
	out, err := os.OpenFile(tmp, flags, 0o644)
	if err != nil {
		return false, err
	}
	written := start
	buf := make([]byte, f.cfg.ChunkBytes)
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := out.Write(buf[:n]); werr != nil {
				out.Close()
				return start > 0, werr
			}
			written += int64(n)
			if f.cfg.Hooks.FetchChunk != nil {
				if herr := f.cfg.Hooks.FetchChunk(kind, seq, written); herr != nil {
					out.Close()
					return start > 0, herr
				}
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			out.Close()
			return start > 0, rerr
		}
	}
	if err := out.Close(); err != nil {
		return start > 0, err
	}
	return start > 0, nil
}

func verifyFile(path string, want FileEntry) (bool, error) {
	crc, size, err := storage.FileCRC32C(path)
	if err != nil {
		return false, err
	}
	return size == want.Size && crc == want.CRC32C, nil
}

func fsyncFile(path string) error {
	fd, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	if err := fd.Sync(); err != nil {
		fd.Close()
		return fmt.Errorf("repl: fsync %s: %w", path, err)
	}
	return fd.Close()
}

// prefetchBlobs scans an installed (not yet applied) segment for checkpoint
// records whose blob the local store lacks and fetches them. The blob key is
// the content's sha256, so Put re-deriving a different key than requested
// means the primary served corrupt bytes — a fault, since applying without
// the blob would silently drop checkpoint state.
func (f *Follower) prefetchBlobs(ctx context.Context, segPath string) error {
	var keys []string
	err := storage.Replay(segPath, false, func(rec any) error {
		if ck, ok := rec.(*record.CkptRecord); ok && ck.BlobKey != "" && !f.blobs.Has(ck.BlobKey) {
			keys = append(keys, ck.BlobKey)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, key := range keys {
		if err := ctx.Err(); err != nil {
			return err
		}
		data, err := f.fetchBlob(ctx, key)
		if err != nil {
			return err
		}
		got, err := f.blobs.Put(data)
		if err != nil {
			return err
		}
		if got != key {
			return faultf("blob %s: primary served content hashing to %s — corrupt transfer or tampered checkpoint", key, got)
		}
	}
	return nil
}

func (f *Follower) fetchBlob(ctx context.Context, key string) ([]byte, error) {
	u := f.cfg.PrimaryURL + PathBlob + "?key=" + url.QueryEscape(key)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("repl: fetch blob %s: %s", key, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// fetchManifest GETs /repl/manifest, acking the replica's applied
// high-water mark. have > 0 with a wait long-polls for a newer seal.
func (f *Follower) fetchManifest(ctx context.Context, have int64, wait time.Duration) (*Manifest, error) {
	q := url.Values{}
	q.Set("follower", f.cfg.FollowerID)
	q.Set("acked", strconv.FormatInt(f.applied.Load(), 10))
	if f.sess != nil { // nil while bootstrapping, before the replica session opens
		q.Set("epoch", strconv.FormatInt(f.sess.Database().Epoch(), 10))
	}
	if wait > 0 {
		q.Set("have", strconv.FormatInt(have, 10))
		q.Set("wait_ms", strconv.FormatInt(int64(wait/time.Millisecond), 10))
	}
	reqCtx, cancel := context.WithTimeout(ctx, wait+15*time.Second)
	defer cancel()
	u := f.cfg.PrimaryURL + PathManifest + "?" + q.Encode()
	req, err := http.NewRequestWithContext(reqCtx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("repl: manifest: %s", resp.Status)
	}
	var m Manifest
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("repl: manifest decode: %w", err)
	}
	return &m, nil
}

// Promote turns the replica writable for failover. It first attempts a
// final catch-up against the primary; when the primary is unreachable (the
// usual failover trigger), it verifies the replica has applied every seal
// it ever observed — promoting with known-unapplied history would silently
// lose commits the primary acked, so that is refused. The flip itself
// (releasing the replica lock, opening an active WAL continuing the
// replicated numbering) is Session.Promote.
func (f *Follower) Promote(ctx context.Context) error {
	if err := f.Fault(); err != nil {
		return err
	}
	m, err := f.fetchManifest(ctx, 0, 0)
	if err == nil {
		if cerr := f.catchUp(ctx, m); cerr != nil {
			return fmt.Errorf("repl: promote: final catch-up: %w", cerr)
		}
	} else if seen, applied := f.lastSeenMax.Load(), f.applied.Load(); seen > applied {
		return fmt.Errorf("repl: promote: primary unreachable and replica applied only segment %d of the %d it observed; refusing to lose acked history (%v)", applied, seen, err)
	}
	return f.sess.Promote()
}
