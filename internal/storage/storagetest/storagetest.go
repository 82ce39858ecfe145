// Package storagetest is crash-injection support for tests: a storage.FS
// that performs every write on the operating system, records it, and — when
// asked — kills the process at step N. The Nth mutation fails (a write may
// first land a prefix of its bytes) and so does every mutation after it, so
// nothing the code under test does next, deferred cleanups included, reaches
// the disk: the directory holds exactly what a killed process leaves.
//
// A crash matrix runs its operation once on a Recorder, enumerates Points
// over the recorded trace, and reruns the operation on Crash(p) for each:
// the kill points are the operations a clean run performs, so there is no
// list of them to maintain.
package storagetest

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"flordb/internal/storage"
)

// ErrKilled is what every mutation returns from the kill step on.
var ErrKilled = errors.New("storagetest: process killed")

// Op is one mutation, as the trace records it.
type Op struct {
	Kind string // open, write, truncate, sync, rename, remove, mkdir, syncdir
	Path string // the file or directory; a rename's source
	To   string // a rename's target
	Len  int    // the bytes a write carried
}

func (o Op) String() string {
	s := o.Kind + " " + filepath.Base(o.Path)
	if o.To != "" {
		s += " to " + filepath.Base(o.To)
	}
	if o.Kind == "write" {
		s += fmt.Sprintf(" %dB", o.Len)
	}
	return s
}

// Point is one crash: step Step (1-based) of a clean run's trace fails, and
// when that step is a write, its first Cut bytes land before it does.
type Point struct {
	Step int
	Cut  int
	Op   Op
}

func (p Point) String() string {
	s := fmt.Sprintf("step %d %s", p.Step, p.Op)
	if p.Cut > 0 {
		s += fmt.Sprintf(" cut at %d", p.Cut)
	}
	return s
}

// Points enumerates the crashes of a clean run: a kill at every step, and
// for every write of more than one byte also a kill that lands its first
// half — the torn write.
func Points(trace []Op) []Point {
	var out []Point
	for i, op := range trace {
		out = append(out, Point{Step: i + 1, Op: op})
		if op.Kind == "write" && op.Len > 1 {
			out = append(out, Point{Step: i + 1, Cut: op.Len / 2, Op: op})
		}
	}
	return out
}

// FS is the recording, crash-injecting storage.FS. Safe for concurrent use.
type FS struct {
	at Point // Step 0: never killed

	mu    sync.Mutex
	trace []Op
	dead  bool
}

// Recorder returns an FS that never kills and records every mutation.
func Recorder() *FS { return &FS{} }

// Crash returns an FS that kills the process at p.
func Crash(p Point) *FS { return &FS{at: p} }

// Trace returns the mutations attempted so far, the killed one included.
func (f *FS) Trace() []Op {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Op(nil), f.trace...)
}

// step admits one mutation. It returns how many of the op's bytes may land
// and, from the kill step on, ErrKilled.
func (f *FS) step(op Op) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dead {
		return 0, ErrKilled
	}
	f.trace = append(f.trace, op)
	if len(f.trace) == f.at.Step {
		f.dead = true
		return f.at.Cut, ErrKilled
	}
	return op.Len, nil
}

var osfs storage.OSFS

func (f *FS) OpenFile(name string, flag int, perm os.FileMode) (storage.File, error) {
	if _, err := f.step(Op{Kind: "open", Path: name}); err != nil {
		return nil, err
	}
	fl, err := osfs.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &file{File: fl, fs: f}, nil
}

func (f *FS) Rename(oldpath, newpath string) error {
	if _, err := f.step(Op{Kind: "rename", Path: oldpath, To: newpath}); err != nil {
		return err
	}
	return osfs.Rename(oldpath, newpath)
}

func (f *FS) Remove(name string) error {
	if _, err := f.step(Op{Kind: "remove", Path: name}); err != nil {
		return err
	}
	return osfs.Remove(name)
}

func (f *FS) MkdirAll(path string, perm os.FileMode) error {
	if _, err := f.step(Op{Kind: "mkdir", Path: path}); err != nil {
		return err
	}
	return osfs.MkdirAll(path, perm)
}

func (f *FS) SyncDir(dir string) error {
	if _, err := f.step(Op{Kind: "syncdir", Path: dir}); err != nil {
		return err
	}
	return osfs.SyncDir(dir)
}

// file routes a File's mutations through its FS's steps. Close is not a
// step: it changes nothing on disk, and it always releases the descriptor.
type file struct {
	storage.File
	fs *FS
}

func (w *file) Write(p []byte) (int, error) {
	n, err := w.fs.step(Op{Kind: "write", Path: w.Name(), Len: len(p)})
	if err != nil {
		if n > 0 {
			n, _ = w.File.Write(p[:n])
		}
		return n, err
	}
	return w.File.Write(p)
}

func (w *file) WriteAt(p []byte, off int64) (int, error) {
	n, err := w.fs.step(Op{Kind: "write", Path: w.Name(), Len: len(p)})
	if err != nil {
		if n > 0 {
			n, _ = w.File.WriteAt(p[:n], off)
		}
		return n, err
	}
	return w.File.WriteAt(p, off)
}

func (w *file) Sync() error {
	if _, err := w.fs.step(Op{Kind: "sync", Path: w.Name()}); err != nil {
		return err
	}
	return w.File.Sync()
}

func (w *file) Truncate(size int64) error {
	if _, err := w.fs.step(Op{Kind: "truncate", Path: w.Name()}); err != nil {
		return err
	}
	return w.File.Truncate(size)
}

// Installed reports whether trace publishes path the way storage.Install
// does: the temp file is fsynced after its last write, then renamed onto
// path, then path's directory is fsynced.
func Installed(trace []Op, path string) bool {
	for i, op := range trace {
		if op.Kind != "rename" || op.To != path {
			continue
		}
		synced := false
		for _, prev := range trace[:i] {
			if prev.Path != op.Path {
				continue
			}
			switch prev.Kind {
			case "sync":
				synced = true
			case "write", "truncate":
				synced = false
			}
		}
		if !synced {
			return false
		}
		for _, next := range trace[i+1:] {
			if next.Kind == "syncdir" && next.Path == filepath.Dir(path) {
				return true
			}
		}
		return false
	}
	return false
}

// Phase is one stretch of a compaction's clean trace and the kill points in
// it.
type Phase struct {
	Name   string
	Points []Point
}

// CompactionPhases groups the kill points of a compaction's clean trace by
// where they fall, in the order of DESIGN §7 invariant 4 (snapshot write →
// fsync → rename → dir-fsync → delete): before the snapshot temp file is
// opened; at its open or in the first half of its writes; in the second
// half; at its fsync; at its rename; from the directory fsync after the
// rename up to the first segment removal; from that removal on. Every phase
// is returned; an empty one is a step the compaction did not take.
func CompactionPhases(trace []Op) []Phase {
	phases := []Phase{
		{Name: "before snapshot write"},
		{Name: "mid snapshot write first table"},
		{Name: "mid snapshot write last table"},
		{Name: "after snapshot write"},
		{Name: "before rename"},
		{Name: "after rename"},
		{Name: "before segment delete"},
	}
	isTmp := func(op Op) bool {
		base := filepath.Base(op.Path)
		return strings.Contains(base, ".snap.") && strings.HasSuffix(base, ".tmp")
	}
	writes := 0
	for _, op := range trace {
		if isTmp(op) && op.Kind == "write" {
			writes++
		}
	}
	at := make([]int, len(trace)) // phase index of each step
	phase, written := 0, 0
	for i, op := range trace {
		switch {
		case isTmp(op) && op.Kind == "open":
			phase = 1
		case isTmp(op) && op.Kind == "write":
			if written++; written > (writes+1)/2 {
				phase = 2
			}
		case isTmp(op) && op.Kind == "sync":
			phase = 3
		case isTmp(op) && op.Kind == "rename":
			phase = 4
		case phase == 4:
			phase = 5
		case phase == 5 && op.Kind == "remove" && !strings.Contains(filepath.Base(op.Path), ".snap."):
			phase = 6
		}
		at[i] = phase
	}
	for _, p := range Points(trace) {
		phases[at[p.Step-1]].Points = append(phases[at[p.Step-1]].Points, p)
	}
	return phases
}
