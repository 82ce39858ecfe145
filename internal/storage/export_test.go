package storage

// NewBlobStoreFS is NewBlobStore with Put writing through fsys, for the
// crash tests of the external test package.
func NewBlobStoreFS(dir string, fsys FS) (*BlobStore, error) {
	b, err := NewBlobStore(dir)
	if err != nil {
		return nil, err
	}
	b.fs = fsys
	return b, nil
}

// Root returns the store's directory, for the crash tests of the external
// test package.
func (b *BlobStore) Root() string { return b.root }

// Pending reports how many records are buffered but not yet flushed.
func (w *WAL) Pending() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.pending
}
