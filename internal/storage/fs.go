package storage

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// FS is the write side of the file system. Every durable mutation the
// storage layer, replication and the version store make — opening a file for
// writing, writing, fsync, truncate, rename, remove, mkdir, directory fsync —
// goes through one, so a test can substitute an FS that fails at any step
// (internal/storage/storagetest). Reads stay on package os, and so does the
// project flock.
type FS interface {
	// OpenFile opens name for writing with os.OpenFile's flags and mode.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	MkdirAll(path string, perm os.FileMode) error
	// SyncDir fsyncs a directory, making the renames, creates and removes
	// inside it durable.
	SyncDir(dir string) error
}

// File is a file opened for writing through an FS.
type File interface {
	io.Writer
	io.WriterAt
	Name() string
	Sync() error
	Truncate(size int64) error
	Close() error
}

// OSFS is the FS of the operating system.
type OSFS struct{}

func (OSFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return file(os.OpenFile(name, flag, perm))
}

// file keeps a failed open from returning a non-nil File holding a nil
// *os.File.
func file(f *os.File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (OSFS) Remove(name string) error { return os.Remove(name) }

func (OSFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("storage: open dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("storage: sync dir: %w", err)
	}
	return nil
}

// Install publishes f — a temp file its caller has finished writing — at
// path: fsync f, close it, rename it over path, fsync path's directory. It is
// the one place that ordering is written down, so a crash at any step leaves
// either the old file at path or the complete new one. With sync false (the
// session's NoSync policy) both fsyncs are skipped. f is closed on every
// path; on error the temp file is left for the caller to remove or reuse.
func Install(fsys FS, f File, path string, sync bool) error {
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(f.Name(), path); err != nil {
		return err
	}
	if sync {
		return fsys.SyncDir(filepath.Dir(path))
	}
	return nil
}

// WriteFileAtomic replaces path with data: it writes path+".tmp" and
// Installs it.
func WriteFileAtomic(fsys FS, path string, data []byte, sync bool) error {
	f, err := fsys.OpenFile(path+".tmp", os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return Install(fsys, f, path, sync)
}
