package storage

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// The replication read API: sealed segments and snapshots are immutable
// files, so a (size, CRC-32C) pair fully identifies their contents. The
// shipping protocol (internal/repl) lists them with ListSegments /
// ListSnapshots, stamps each with FileCRC32C, and followers verify every
// fetched file with the same function before installing it.

// castagnoli is the CRC-32C polynomial table, matching the checksum the
// binary snapshot format already uses (internal/record/snapshot.go).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// FileCRC32C returns the CRC-32C (Castagnoli) checksum and size of the file
// at path, streaming it through a bounded buffer.
func FileCRC32C(path string) (crc uint32, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("storage: crc open: %w", err)
	}
	defer f.Close()
	h := crc32.New(castagnoli)
	n, err := io.Copy(h, f)
	if err != nil {
		return 0, 0, fmt.Errorf("storage: crc read %s: %w", path, err)
	}
	return h.Sum32(), n, nil
}

// LockProject takes the exclusive per-project advisory lock that OpenWAL
// would take, without opening the WAL for appending. Read-only replicas hold
// it so that two processes cannot concurrently install segments into — or
// one promote while another replicates into — the same project directory.
// Closing the returned handle releases the lock.
func LockProject(walPath string) (io.Closer, error) {
	return lockFile(walPath + ".lock")
}
