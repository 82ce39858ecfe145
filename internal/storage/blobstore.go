package storage

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
)

// BlobStore reads the checkpoint bytes that ckpt lines written before
// checkpoints rode in the log name by content hash (blob_key, no data). It
// is read-only: nothing writes objects/ any more, and blobs live where those
// releases put them, at <root>/<aa>/<rest-of-hash>.
type BlobStore struct {
	root string
}

// NewBlobStore returns the reader of the store rooted at dir. It creates
// nothing; a project with no legacy checkpoints has no such directory.
func NewBlobStore(dir string) (*BlobStore, error) {
	return &BlobStore{root: dir}, nil
}

// HashKey computes the content address for a payload.
func HashKey(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Get reads the payload at the given content address and checks that it
// hashes to it. A nil store holds nothing.
func (b *BlobStore) Get(key string) ([]byte, error) {
	if b == nil || len(key) < 3 {
		return nil, fmt.Errorf("storage: blob %s: not in an objects/ store", key)
	}
	data, err := os.ReadFile(filepath.Join(b.root, key[:2], key[2:]))
	if err != nil {
		return nil, fmt.Errorf("storage: blob %s: %w", key, err)
	}
	if HashKey(data) != key {
		return nil, fmt.Errorf("storage: blob %s failed integrity check", key)
	}
	return data, nil
}
