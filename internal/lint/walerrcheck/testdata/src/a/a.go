// Fixture for the walerrcheck analyzer: durability-call errors must
// never be discarded. Positive cases carry want comments; the rest are
// the correct idioms the analyzer must stay silent on.
package a

import "os"

// WAL mirrors the shape of internal/storage.WAL: the durability methods
// Append/AppendCommit/Flush/Seal/Truncate are recognized by method name
// on a type named WAL.
type WAL struct{}

func (w *WAL) Append(rec any) error       { return nil }
func (w *WAL) AppendCommit(rec any) error { return nil }
func (w *WAL) Flush() error               { return nil }
func (w *WAL) Seal() (int64, error)       { return 0, nil }
func (w *WAL) Truncate() error            { return nil }

type file struct{}

func (f *file) Sync() error { return nil }

// FS mirrors the shape of internal/storage.FS, the write seam: Rename and
// SyncDir on a type named *FS, and the package-level Install that publishes
// a temp file, are durability calls.
type FS interface {
	Rename(oldpath, newpath string) error
	Remove(name string) error
	SyncDir(dir string) error
}

func Install(fsys FS, f *file, path string, sync bool) error { return nil }

func discarded(w *WAL, f *file, fsys FS) {
	w.AppendCommit(nil)         // want `error of durability call WAL.AppendCommit is discarded`
	f.Sync()                    // want `error of durability call Sync is discarded`
	os.Rename("a", "b")         // want `error of durability call os.Rename is discarded`
	fsys.Rename("a", "b")       // want `error of durability call FS.Rename is discarded`
	_ = fsys.SyncDir(".")       // want `error of durability call FS.SyncDir is discarded`
	Install(fsys, f, "p", true) // want `error of durability call Install is discarded`
	_ = w.Flush()               // want `error of durability call WAL.Flush is discarded`
	_, _ = w.Seal()             // want `error of durability call WAL.Seal is discarded`
	defer f.Sync()              // want `error of durability call Sync is discarded`
	go w.Truncate()             // want `error of durability call WAL.Truncate is discarded`
	fsys.Remove("a.tmp")        // best-effort cleanup: not a durability boundary
}

func handled(w *WAL, f *file, fsys FS) error {
	if err := w.AppendCommit(nil); err != nil {
		return err
	}
	if err := os.Rename("a", "b"); err != nil {
		return err
	}
	if err := fsys.Rename("a", "b"); err != nil {
		return err
	}
	if err := Install(fsys, f, "p", true); err != nil {
		return err
	}
	seq, err := w.Seal() // error captured alongside the value
	_ = seq
	if err != nil {
		return err
	}
	return f.Sync() // propagated to the caller
}

// slot captures the error into a deferred-error slot — the pattern of
// internal/sqlparse/eval.go's scratch-row fallback, where the batch
// path registers failures in *evalErr for the row loop to surface.
// Capturing into any non-blank destination counts as handled.
func slot(f *file, evalErr *error) func() {
	return func() {
		if err := f.Sync(); err != nil && *evalErr == nil {
			*evalErr = err
		}
	}
}

// buf has an Append method but is not a WAL, so its error is not a
// durability error and may be ignored (it is nonsense code, but not
// walerrcheck's nonsense).
type buf struct{}

func (b *buf) Append(x any) error { _ = x; return nil }

func notAWAL(b *buf) {
	b.Append(1) // Append on a non-WAL type: not a durability boundary
}
