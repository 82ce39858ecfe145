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
