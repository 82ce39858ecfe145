package storage

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// BlobStore is a content-addressed file store used for checkpoint blobs
// (the durable half of obj_store) and shared with the vcs object store
// layout: blobs live at <root>/<aa>/<rest-of-hash>. It needs no mutex:
// writes land in a unique temp file and are published by atomic rename,
// so concurrent Puts of the same key just install identical bytes.
type BlobStore struct {
	root   string
	noSync bool
}

// NewBlobStore creates the store rooted at dir.
func NewBlobStore(dir string) (*BlobStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: blobstore mkdir: %w", err)
	}
	return &BlobStore{root: dir}, nil
}

// Root returns the store's directory.
func (b *BlobStore) Root() string { return b.root }

// HashKey computes the content address for a payload.
func HashKey(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// SetNoSync makes Put skip its fsyncs — the session's Options.NoSync policy,
// under which no write of the project survives a crash by contract. Call it
// before the store is shared.
func (b *BlobStore) SetNoSync(noSync bool) { b.noSync = noSync }

// Put writes the payload and returns its content address. Unless the store
// is NoSync, every key Put returns is durable, so a WAL record may name it:
// the temp file is fsynced before the rename that publishes it, and the
// fan-out directory and then the root are fsynced before Put returns.
// An existing blob is left untouched, but its directories are still synced:
// the file may be a concurrent Put's, renamed into place and not yet named
// durably, and the fan-out directory may be one a concurrent Put made and has
// not yet synced into the root.
func (b *BlobStore) Put(data []byte) (string, error) {
	key := HashKey(data)
	path := b.pathFor(key)
	dir := filepath.Dir(path)
	if _, err := os.Stat(path); err == nil {
		if err := b.syncDirs(dir); err != nil {
			return "", err
		}
		return key, nil
	}
	if err := os.Mkdir(dir, 0o755); err != nil && !errors.Is(err, fs.ErrExist) {
		return "", fmt.Errorf("storage: blob mkdir: %w", err)
	}
	// A unique temp name per writer keeps concurrent Puts of the same key
	// from clobbering each other's staging file; the rename is atomic and
	// both sides carry identical bytes, so whichever lands last wins
	// harmlessly. This also keeps blob IO outside any lock (lockfsync).
	tmp, err := os.CreateTemp(dir, ".blob-*.tmp")
	if err != nil {
		return "", fmt.Errorf("storage: blob tmp: %w", err)
	}
	_, err = tmp.Write(data)
	if err == nil && !b.noSync {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("storage: blob write: %w", err)
	}
	if err := b.syncDirs(dir); err != nil {
		return "", err
	}
	return key, nil
}

// syncDirs fsyncs a fan-out directory and then the store root, under the
// store's NoSync policy.
func (b *BlobStore) syncDirs(dir string) error {
	if b.noSync {
		return nil
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	return syncDir(b.root)
}

// Get reads the payload at the given content address.
func (b *BlobStore) Get(key string) ([]byte, error) {
	data, err := os.ReadFile(b.pathFor(key))
	if err != nil {
		return nil, fmt.Errorf("storage: blob %s: %w", key, err)
	}
	if HashKey(data) != key {
		return nil, fmt.Errorf("storage: blob %s failed integrity check", key)
	}
	return data, nil
}

// Has reports whether the store holds the given key.
func (b *BlobStore) Has(key string) bool {
	_, err := os.Stat(b.pathFor(key))
	return err == nil
}

func (b *BlobStore) pathFor(key string) string {
	if len(key) < 3 {
		return filepath.Join(b.root, "short", key)
	}
	return filepath.Join(b.root, key[:2], key[2:])
}
