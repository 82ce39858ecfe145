// Fixture for the epochorder analyzer: within one function, the call that
// publishes a commit — the epoch advance, or the storage commit arm
// State.Publish that performs it — must come after WAL.AppendCommit: fsync
// first, publish second (DESIGN §8).
package a

type DB struct{}

func (d *DB) AdvanceEpoch() int64 { return 0 }

type WAL struct{}

func (w *WAL) AppendCommit(rec any) error { return nil }

// State stands in for storage.State: its Publish is the commit arm.
type State struct{}

func (State) Publish(rec any) error { return nil }

// Other has a Publish that publishes nothing the analyzer knows of.
type Other struct{}

func (Other) Publish(rec any) error { return nil }

type sess struct {
	db  *DB
	wal *WAL
	st  State
}

// goodCommit is the Session.Commit shape: durability point first, then
// the publish.
func goodCommit(s *sess) error {
	if err := s.wal.AppendCommit(nil); err != nil {
		return err
	}
	s.db.AdvanceEpoch()
	return nil
}

func badStraightLine(s *sess) error {
	s.db.AdvanceEpoch() // want `AdvanceEpoch may run before this function's WAL.AppendCommit`
	return s.wal.AppendCommit(nil)
}

func badBranch(s *sess, c bool) error {
	s.db.AdvanceEpoch() // want `AdvanceEpoch may run before this function's WAL.AppendCommit`
	if c {
		return nil
	}
	return s.wal.AppendCommit(nil)
}

func badPerIteration(s *sess, n int) error {
	for i := 0; i < n; i++ {
		s.db.AdvanceEpoch() // want `AdvanceEpoch may run before this function's WAL.AppendCommit`
		if err := s.wal.AppendCommit(nil); err != nil {
			return err
		}
	}
	return nil
}

// goodLoop commits then advances each iteration. The AppendCommit
// reachable through the loop back edge belongs to the NEXT transaction;
// ordering across transactions is not constrained.
func goodLoop(s *sess, n int) error {
	for i := 0; i < n; i++ {
		if err := s.wal.AppendCommit(nil); err != nil {
			return err
		}
		s.db.AdvanceEpoch()
	}
	return nil
}

// advanceOnly has no commit to order against — recovery publishing
// recovered rows does exactly this — so it is not constrained.
func advanceOnly(d *DB) int64 {
	return d.AdvanceEpoch()
}

// commitOnly is likewise unconstrained.
func commitOnly(w *WAL) error {
	return w.AppendCommit(nil)
}

// goodPublish is the Session.publish shape: the record is durable, then the
// commit arm publishes it.
func goodPublish(s *sess, wal *WAL) error {
	if wal != nil {
		if err := wal.AppendCommit(nil); err != nil {
			return err
		}
	}
	return s.st.Publish(nil)
}

func badPublishFirst(s *sess) error {
	if err := s.st.Publish(nil); err != nil { // want `State.Publish may run before this function's WAL.AppendCommit`
		return err
	}
	return s.wal.AppendCommit(nil)
}

func badPublishOnOnePath(s *sess, c bool) error {
	if c {
		s.st.Publish(nil) // want `State.Publish may run before this function's WAL.AppendCommit`
	}
	return s.wal.AppendCommit(nil)
}

// otherPublish is not a commit publication.
func otherPublish(s *sess, o Other) error {
	o.Publish(nil)
	return s.wal.AppendCommit(nil)
}

// publishOnly — replay applying a commit record — is unconstrained.
func publishOnly(st State) error {
	return st.Publish(nil)
}
