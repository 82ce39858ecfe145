package storage

import (
	"encoding/json"
	"fmt"
	"os"
)

// retentionManifest is the small durable sidecar recording the epoch
// retention floor chosen by the last GC run. The log consumer reads it into
// every State it opens: compaction then folds retired versions out of the
// next snapshot, and a restarted session refuses AS OF below the floor even
// before any post-GC snapshot exists.
type retentionManifest struct {
	MinEpoch int64 `json:"min_epoch"`
}

// retentionPath returns the manifest path for a WAL. The non-numeric suffix
// keeps it invisible to the segment/snapshot listings.
func retentionPath(walPath string) string { return walPath + ".retention" }

// WriteRetention durably replaces the WAL's retention floor through its FS:
// WriteFileAtomic, the same temp, fsync, rename, directory-fsync install as
// snapshots.
func (w *WAL) WriteRetention(floor int64) error {
	data, err := json.Marshal(retentionManifest{MinEpoch: floor})
	if err == nil {
		err = WriteFileAtomic(w.fs, retentionPath(w.path), data, true)
	}
	if err != nil {
		return fmt.Errorf("storage: retention manifest: %w", err)
	}
	return nil
}

// readRetention loads the persisted retention floor; a missing manifest is
// floor 0.
func readRetention(walPath string) (int64, error) {
	var m retentionManifest
	data, err := os.ReadFile(retentionPath(walPath))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("storage: retention manifest: %w", err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return 0, fmt.Errorf("storage: retention manifest: %w", err)
	}
	return m.MinEpoch, nil
}
