// Package repl implements FlorDB's replication: a primary ships sealed,
// commit-aligned WAL segments (and the snapshot that seeds a cold follower)
// over HTTP, and a follower installs them into an identical on-disk layout
// and replays them into its own MVCC epochs.
//
// The design leans entirely on invariants the storage layer already
// guarantees (DESIGN.md §11):
//
//   - Sealed segments and snapshots are immutable and commit-aligned, so a
//     (size, CRC-32C) pair fully identifies a file and a shipped segment can
//     be applied atomically — one published epoch per commit record.
//   - The follower's directory mirrors the primary's byte-for-byte (same
//     file names), so bootstrap and crash recovery are the ordinary
//     storage.State.Recover path, and apply is the same walk over one
//     segment: a follower killed at any point between fetch and apply
//     restarts into a consistent state for free.
//   - Segment numbering is dense. A follower that needs segment N and is
//     offered N+1 has hit compacted-away history; it faults loudly and
//     refuses to serve rather than replaying around the gap.
//
// Catch-up traffic is pull-based and admission-friendly: the follower asks
// for one file at a time and backs off exponentially (with jitter) on any
// failure, so replication load on the primary is bounded and bursty retry
// storms cannot form.
package repl

import (
	"fmt"
	"math/rand"
	"time"
)

// Wire paths mounted on the primary's HTTP mux.
const (
	PathManifest = "/repl/manifest"
	PathSegment  = "/repl/segment"
	PathSnapshot = "/repl/snapshot"
)

// headerCRC carries a file's full CRC-32C so a follower can verify a fetch
// (including one resumed across prior partial fetches) end to end.
const headerCRC = "X-Flor-Crc32c"

// headerSize carries the full file size, letting a resuming follower detect
// a truncated-on-primary file before wasting a fetch.
const headerSize = "X-Flor-Size"

// FileEntry describes one immutable file (sealed segment or snapshot) in a
// manifest. Size and CRC are stable for the file's lifetime.
type FileEntry struct {
	Seq    int64  `json:"seq"`
	Size   int64  `json:"size"`
	CRC32C uint32 `json:"crc32c"`
}

// Manifest is the primary's shipping catalog: which sealed segments exist,
// the newest snapshot (if any), and where the primary's logical clock is.
// GET /repl/manifest returns it; ?have=N long-polls until a segment with
// Seq > N is sealed or the wait expires.
type Manifest struct {
	Project string `json:"project"`
	// Tstamp is the primary's logical timestamp at manifest-build time;
	// followers subtract their own to compute replica_lag_epochs.
	Tstamp   int64       `json:"tstamp"`
	Segments []FileEntry `json:"segments"`
	// Snapshot is the newest table snapshot, or nil when none exists. Its
	// Seq is the highest segment it covers.
	Snapshot *FileEntry `json:"snapshot,omitempty"`
}

// MaxSeq returns the highest sealed-segment sequence in the manifest, or 0.
func (m *Manifest) MaxSeq() int64 {
	if len(m.Segments) == 0 {
		return 0
	}
	return m.Segments[len(m.Segments)-1].Seq
}

// MinSeq returns the lowest sealed-segment sequence still listed, or 0.
func (m *Manifest) MinSeq() int64 {
	if len(m.Segments) == 0 {
		return 0
	}
	return m.Segments[0].Seq
}

// Backoff is jittered exponential retry pacing for the follower's tail loop.
type Backoff struct {
	Min    time.Duration // first delay (default 100ms)
	Max    time.Duration // delay ceiling (default 15s)
	Factor float64       // growth per consecutive failure (default 2)
	Jitter float64       // uniform jitter fraction, 0..1 (default 0.5)

	fails int
	rng   *rand.Rand
}

func (b *Backoff) withDefaults() {
	if b.Min <= 0 {
		b.Min = 100 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 15 * time.Second
	}
	if b.Factor < 1 {
		b.Factor = 2
	}
	if b.Jitter < 0 || b.Jitter > 1 {
		b.Jitter = 0.5
	}
}

// Reset clears the failure streak after a success.
func (b *Backoff) Reset() { b.fails = 0 }

// Next returns the delay before the next retry and records one failure.
// The delay grows Factor× per consecutive failure, capped at Max, with a
// uniform ±Jitter/2 fraction of itself added so a fleet of followers that
// all lost the primary at once do not reconnect in lockstep.
func (b *Backoff) Next() time.Duration {
	b.withDefaults()
	d := float64(b.Min)
	for i := 0; i < b.fails; i++ {
		d *= b.Factor
		if d >= float64(b.Max) {
			d = float64(b.Max)
			break
		}
	}
	b.fails++
	if b.Jitter > 0 {
		if b.rng == nil {
			b.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
		}
		d += d * b.Jitter * (b.rng.Float64() - 0.5)
	}
	if d < float64(b.Min) {
		d = float64(b.Min)
	}
	return time.Duration(d)
}

// FaultError is a permanent replication fault: the follower's view of
// history can no longer be reconciled with the primary's (segment gap, CRC
// mismatch that a refetch did not cure, project mismatch, primary with less
// history). A faulted follower refuses to serve — wrong answers are worse
// than no answers — and requires an operator re-seed.
type FaultError struct {
	Reason string
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("repl: permanent fault, refusing to serve: %s", e.Reason)
}

// faultf builds a FaultError.
func faultf(format string, args ...any) *FaultError {
	return &FaultError{Reason: fmt.Sprintf(format, args...)}
}
