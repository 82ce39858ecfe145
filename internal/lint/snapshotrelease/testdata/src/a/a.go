// Fixture for the snapshotrelease analyzer: every pinned MVCC view
// (Snapshot/SnapshotLatest/Reader/LatestReader whose result has a
// Release or Close method) must be released on every path, unless
// ownership escapes to the caller.
package a

import (
	"errors"
	"strings"
)

type Snapshot struct{}

func (s *Snapshot) Release()  {}
func (s *Snapshot) Rows() int { return 0 }

type DB struct{}

func (d *DB) Snapshot() *Snapshot       { return &Snapshot{} }
func (d *DB) SnapshotLatest() *Snapshot { return &Snapshot{} }

type View struct{ snap *Snapshot }

func (v *View) Close() error              { return nil }
func (v *View) SQL(q string) (int, error) { _ = q; return 0, nil }

type Session struct{ db *DB }

func (s *Session) Reader() (*View, error)              { return &View{}, nil }
func (s *Session) LatestReader() (*View, error)        { return &View{}, nil }
func (s *Session) ReaderAt(epoch int64) (*View, error) { _ = epoch; return &View{}, nil }

func (d *DB) SnapshotAt(epoch int64) (*Snapshot, error) { _ = epoch; return &Snapshot{}, nil }

func neverReleased(db *DB) int {
	snap := db.Snapshot() // want `snapshot pinned by Snapshot is never released`
	return snap.Rows()
}

func dropped(db *DB) {
	db.Snapshot() // want `Snapshot pins a snapshot that is immediately dropped`
}

func blank(db *DB) {
	_ = db.Snapshot() // want `Snapshot pins a snapshot that is assigned to the blank identifier`
}

func leakyBranch(s *Session, c bool) error {
	v, err := s.Reader() // want `snapshot pinned by Reader may not be released on the path`
	if err != nil {
		return err
	}
	if c {
		return errors.New("early") // exits without v.Close()
	}
	return v.Close()
}

// goodDeferred is the request-handler idiom: err-guard return (the view
// is nil there), then defer the Close.
func goodDeferred(s *Session) (int, error) {
	v, err := s.Reader()
	if err != nil {
		return 0, err
	}
	defer v.Close()
	return v.SQL("SELECT 1")
}

func goodExplicit(db *DB) int {
	snap := db.Snapshot()
	n := snap.Rows()
	snap.Release()
	return n
}

// goodBothBranches releases on every path without a defer.
func goodBothBranches(db *DB, c bool) int {
	snap := db.SnapshotLatest()
	if c {
		n := snap.Rows()
		snap.Release()
		return n
	}
	snap.Release()
	return 0
}

// goodReturned transfers ownership to the caller wholesale.
func goodReturned(s *Session) (*View, error) {
	return s.Reader()
}

// goodEscapes returns the bound view: the caller owns the Close.
func goodEscapes(s *Session) (*View, error) {
	v, err := s.Reader()
	if err != nil {
		return nil, err
	}
	return v, nil
}

type holder struct{ v *View }

// goodStored stores the view in a struct; the holder owns the release.
func goodStored(s *Session) (*holder, error) {
	v, err := s.LatestReader()
	if err != nil {
		return nil, err
	}
	return &holder{v: v}, nil
}

// goodPassed hands the view to a callee that takes over.
func goodPassed(s *Session, sink func(*View)) error {
	v, err := s.Reader()
	if err != nil {
		return err
	}
	sink(v)
	return nil
}

// leakyReaderAt: the time-travel pin paths are acquisitions too — a leaked
// historical pin is counted in snapshot_pins like any other.
func leakyReaderAt(s *Session) (int, error) {
	v, err := s.ReaderAt(7) // want `snapshot pinned by ReaderAt is never released`
	if err != nil {
		return 0, err
	}
	return v.SQL("SELECT 1")
}

func leakySnapshotAt(db *DB, c bool) int {
	snap, err := db.SnapshotAt(3) // want `snapshot pinned by SnapshotAt may not be released on the path`
	if err != nil {
		return 0
	}
	if c {
		return 1 // exits without snap.Release()
	}
	n := snap.Rows()
	snap.Release()
	return n
}

// goodReaderAt follows the handler idiom with the historical pin.
func goodReaderAt(s *Session) (int, error) {
	v, err := s.ReaderAt(7)
	if err != nil {
		return 0, err
	}
	defer v.Close()
	return v.SQL("SELECT 1")
}

func goodSnapshotAt(db *DB) int {
	snap, err := db.SnapshotAt(3)
	if err != nil {
		return 0
	}
	n := snap.Rows()
	snap.Release()
	return n
}

type Corpus struct{}

// Reader on Corpus returns a *strings.Reader, which has no
// Release/Close method: not a pin, out of scope.
func (c *Corpus) Reader() *strings.Reader { return strings.NewReader("x") }

func goodNotAPin(c *Corpus) int {
	r := c.Reader()
	return r.Len()
}
