package repl

import (
	"context"
	"errors"
	"math"
	"testing"

	flor "flordb"
)

// TestEpochFloorTracksFollowerAcks: followers report their applied commit
// epoch on every manifest poll, and the primary's EpochFloor is the minimum
// over fresh followers — MaxInt64 (unconstrained) when none exist.
func TestEpochFloorTracksFollowerAcks(t *testing.T) {
	e := newPrimaryEnv(t, flor.Options{})
	e.commitN(4)

	if got := e.prim.EpochFloor(); got != math.MaxInt64 {
		t.Fatalf("EpochFloor with no followers = %d, want MaxInt64", got)
	}

	f, err := StartFollower(context.Background(), e.cfg(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stepUntil(t, f, 4)
	// Epoch acks ride on manifest polls; issue one after catch-up.
	if _, err := f.fetchManifest(context.Background(), 0, 0); err != nil {
		t.Fatal(err)
	}
	if got := e.prim.EpochFloor(); got != 4 {
		t.Fatalf("EpochFloor after catch-up = %d, want 4", got)
	}

	// A pre-epoch follower that omits epoch= is recorded as unconstrained:
	// it must not drag the floor to zero and freeze GC forever.
	e.prim.recordAck("legacy-follower", 4, math.MaxInt64)
	if got := e.prim.EpochFloor(); got != 4 {
		t.Fatalf("EpochFloor with legacy follower = %d, want 4", got)
	}
}

// TestGCEpochsClampsToFollowerEpoch: epoch-retention GC on the primary may
// not retire history a lagging follower still needs for AS OF answers.
func TestGCEpochsClampsToFollowerEpoch(t *testing.T) {
	e := newPrimaryEnv(t, flor.Options{RetainEpochs: 1})
	e.commitN(4)

	f, err := StartFollower(context.Background(), e.cfg(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stepUntil(t, f, 4)
	if _, err := f.fetchManifest(context.Background(), 0, 0); err != nil {
		t.Fatal(err)
	}

	// The primary races ahead; the follower stays parked at epoch 4.
	e.commitN(4)
	st, err := e.sess.GCEpochs()
	if err != nil {
		t.Fatal(err)
	}
	// Unclamped the floor would be 8-1=7; the follower ack holds it at 4.
	if st.Floor != 4 {
		t.Fatalf("GC floor = %d, want clamp to follower epoch 4", st.Floor)
	}
	if _, err := e.sess.ReaderAt(3); !errors.Is(err, flor.ErrEpochRetired) {
		t.Fatalf("ReaderAt(3) = %v, want ErrEpochRetired", err)
	}
	v, err := e.sess.ReaderAt(4)
	if err != nil {
		t.Fatalf("follower-needed epoch 4 retired: %v", err)
	}
	v.Close()
}
