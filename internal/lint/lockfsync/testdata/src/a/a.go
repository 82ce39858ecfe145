// Fixture for the lockfsync analyzer: no durability call (fsync,
// AppendCommit, Seal, os.Rename, the write seam's Rename / SyncDir /
// Install) while a mutex locked in the same function may still be held. The clean cases are the
// unlock-before-fsync discipline of Session.Commit (DESIGN §8).
package a

import (
	"os"
	"sync"
)

type WAL struct{}

func (w *WAL) AppendCommit(rec any) error { return nil }

type file struct{}

func (f *file) Sync() error { return nil }

// FS mirrors the shape of internal/storage.FS, the write seam.
type FS interface {
	Rename(oldpath, newpath string) error
	SyncDir(dir string) error
}

func Install(fsys FS, f *file, path string, sync bool) error { return nil }

type sess struct {
	mu  sync.Mutex
	rw  sync.RWMutex
	wal *WAL
	f   *file
	fs  FS
}

func badInline(s *sess) error {
	s.mu.Lock()
	err := s.wal.AppendCommit(nil) // want `durability call s.wal.AppendCommit while s.mu may still be held`
	s.mu.Unlock()
	return err
}

func badDefer(s *sess) error {
	s.mu.Lock()
	defer s.mu.Unlock() // deferred unlock runs at return: the body holds the lock
	return s.f.Sync()   // want `durability call s.f.Sync while s.mu may still be held`
}

func badRLock(s *sess) error {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return os.Rename("a", "b") // want `durability call os.Rename while s.rw may still be held`
}

func badMayHold(s *sess, c bool) error {
	if c {
		s.mu.Lock()
	}
	err := s.f.Sync() // want `durability call s.f.Sync while s.mu may still be held`
	if c {
		s.mu.Unlock()
	}
	return err
}

func badSeamRename(s *sess) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fs.Rename("a.tmp", "a") // want `durability call s.fs.Rename while s.mu may still be held`
}

func badSeamSyncDir(s *sess) error {
	s.rw.Lock()
	err := s.fs.SyncDir(".") // want `durability call s.fs.SyncDir while s.rw may still be held`
	s.rw.Unlock()
	return err
}

func badSeamInstall(s *sess) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Install(s.fs, s.f, "a", true) // want `durability call Install while s.mu may still be held`
}

// goodInstall publishes outside the critical section.
func goodInstall(s *sess) error {
	s.mu.Lock()
	path := "a"
	s.mu.Unlock()
	return Install(s.fs, s.f, path, true)
}

// goodCommit is the Session.Commit shape: mutate state under the lock,
// release it, then reach the durability boundary.
func goodCommit(s *sess) error {
	s.mu.Lock()
	staged := 1
	_ = staged
	s.mu.Unlock()
	return s.wal.AppendCommit(nil)
}

func goodBranch(s *sess, c bool) error {
	s.mu.Lock()
	if c {
		s.mu.Unlock()
		return s.f.Sync() // unlocked on this path before the fsync
	}
	s.mu.Unlock()
	return nil
}

// callerLocked: the lock is acquired by the caller; intraprocedural
// analysis does not see it. The *Locked naming convention covers this.
func callerLocked(s *sess) error {
	return s.f.Sync()
}

// closureBody: the nested function literal gets its own CFG; the outer
// lock is not attributed to it, and its fsync is not attributed to the
// outer critical section.
func closureBody(s *sess) func() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return func() error { return s.f.Sync() }
}

// sanctioned holds the lock across the fsync on purpose — the fixture
// analogue of WAL.Truncate fsyncing the shortened file during recovery —
// and says so with an ignore directive.
func sanctioned(s *sess) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	//florvet:ignore lockfsync nothing else takes this mutex while it fsyncs
	return s.f.Sync()
}
