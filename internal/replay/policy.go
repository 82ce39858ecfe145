// Package replay implements FlorDB's record-replay engine (§2 of the
// paper): low-overhead adaptive checkpointing during recording, and
// low-latency selective replay from checkpoints — the mechanism behind
// multiversion hindsight logging.
//
// Recording: the Recorder implements script.FlorHooks. Every flor.log /
// flor.loop / flor.arg call is shredded into the Figure-1 tables and
// appended to the WAL. Inside a flor.checkpointing scope, the outermost
// flor.loop becomes the checkpoint loop: at each iteration boundary the
// CheckpointManager consults a CheckpointPolicy and, when told to, snapshots
// the registered objects into obj_store.
//
// Replay: the Replayer implements the same hook interface but (a) resolves
// flor.arg from the historical args table, (b) skips checkpoint-loop
// iterations that are not needed, restoring object state from the nearest
// checkpoint instead of recomputing it (memoization), and (c) emits log
// records only for the *newly injected* statements, tagged with the original
// version's timestamp and the original loop contexts' ctx_ids.
package replay

import (
	"strconv"
	"time"
)

// CheckpointPolicy decides whether to take a checkpoint at an iteration
// boundary of the checkpoint loop.
type CheckpointPolicy interface {
	// ShouldCheckpoint is consulted after iteration `iter` whose body took
	// bodyDur. lastCkptDur is the duration of the most recent checkpoint
	// (0 before the first).
	ShouldCheckpoint(iter int, bodyDur, lastCkptDur time.Duration) bool
	// Name identifies the policy in benchmarks and logs.
	Name() string
}

// EveryN checkpoints every n-th iteration (n=1 means every iteration).
type EveryN struct{ N int }

// ShouldCheckpoint implements CheckpointPolicy.
func (p EveryN) ShouldCheckpoint(iter int, _, _ time.Duration) bool {
	if p.N <= 1 {
		return true
	}
	return (iter+1)%p.N == 0
}

// Name implements CheckpointPolicy.
func (p EveryN) Name() string {
	if p.N <= 1 {
		return "every-iteration"
	}
	return "every-" + strconv.Itoa(p.N)
}

// Never disables checkpointing (the "no checkpoints" ablation baseline —
// replay then degenerates to full re-execution).
type Never struct{}

// ShouldCheckpoint implements CheckpointPolicy.
func (Never) ShouldCheckpoint(int, time.Duration, time.Duration) bool { return false }

// Name implements CheckpointPolicy.
func (Never) Name() string { return "never" }

// Adaptive keeps cumulative checkpoint time at most Epsilon of cumulative
// body time — the paper's "low-overhead adaptive checkpointing" [8]. It
// always checkpoints the first iteration (to measure checkpoint cost), then
// checkpoints whenever doing so keeps overhead within budget.
type Adaptive struct {
	// Epsilon is the tolerated overhead fraction, e.g. 0.05 for 5%.
	Epsilon float64

	bodyTotal time.Duration
	ckptTotal time.Duration
}

// ShouldCheckpoint implements CheckpointPolicy.
func (p *Adaptive) ShouldCheckpoint(iter int, bodyDur, lastCkptDur time.Duration) bool {
	p.bodyTotal += bodyDur
	if iter == 0 {
		return true
	}
	est := lastCkptDur
	if est == 0 {
		est = time.Microsecond
	}
	eps := p.Epsilon
	if eps <= 0 {
		eps = 0.05
	}
	if float64(p.ckptTotal+est) <= eps*float64(p.bodyTotal) {
		return true
	}
	return false
}

// RecordCheckpointCost feeds actual checkpoint durations back into the
// budget. The CheckpointManager calls this after each snapshot.
func (p *Adaptive) RecordCheckpointCost(d time.Duration) { p.ckptTotal += d }

// Name implements CheckpointPolicy.
func (p *Adaptive) Name() string { return "adaptive" }
