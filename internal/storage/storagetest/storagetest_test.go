package storagetest

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flordb/internal/storage"
)

func TestRecorderTracesAnInstall(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	rec := Recorder()
	if err := storage.WriteFileAtomic(rec, path, []byte("hello"), true); err != nil {
		t.Fatal(err)
	}
	trace := rec.Trace()
	var kinds []string
	for _, op := range trace {
		kinds = append(kinds, op.Kind)
	}
	if got := strings.Join(kinds, " "); got != "open write sync rename syncdir" {
		t.Fatalf("trace %v", trace)
	}
	if !Installed(trace, path) || Installed(trace, path+".other") {
		t.Fatal("Installed misjudges a storage.Install trace")
	}
	// A rename whose source was written after its fsync is not an install.
	torn := append(append([]Op(nil), trace[:3]...), Op{Kind: "write", Path: path + ".tmp", Len: 1})
	if Installed(append(torn, trace[3:]...), path) {
		t.Fatal("Installed accepts a write between the fsync and the rename")
	}
	if got := len(Points(trace)); got != 6 {
		t.Fatalf("%d points for five steps with one multi-byte write, want 6", got)
	}
}

// TestCrashLandsACutThenRefusesEverything: the killed write lands exactly its
// cut, every later mutation fails without touching the disk, and Close still
// releases the descriptor.
func TestCrashLandsACutThenRefusesEverything(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	fsys := Crash(Point{Step: 2, Cut: 3})
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := f.Write([]byte("hello")); n != 3 || !errors.Is(err, ErrKilled) {
		t.Fatalf("killed write = %d, %v; want 3, ErrKilled", n, err)
	}
	if _, err := f.Write([]byte("more")); !errors.Is(err, ErrKilled) {
		t.Fatalf("write after the kill: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrKilled) {
		t.Fatalf("sync after the kill: %v", err)
	}
	if err := fsys.Rename(path, path+".moved"); !errors.Is(err, ErrKilled) {
		t.Fatalf("rename after the kill: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close after the kill: %v", err)
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != "hel" {
		t.Fatalf("disk after the kill: %q, %v", data, err)
	}
	if trace := fsys.Trace(); len(trace) != 2 || trace[1].Kind != "write" {
		t.Fatalf("trace %v, want the open and the killed write", trace)
	}
}
