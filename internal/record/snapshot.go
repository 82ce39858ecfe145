// Snapshot codec: a versioned, checksummed binary serialization of the base
// tables, stamped with the WAL segment sequence it covers. Recovery loads
// the newest valid snapshot and replays only the WAL tail, making startup
// O(live data) instead of O(total history) — the metadata-side analog of the
// paper's checkpoint/replay design for training state (§2).
//
// The FLORSNAP container is a magic, a JSON meta block {"version","seq",
// "max_tstamp","epoch","min_epoch","epochs"} and a CRC-32C (Castagnoli,
// hardware-accelerated) trailer around the table sections; the sections are
// columnar pages with zone maps in a page directory (snapshot_columnar.go).
// A file stamped with any other version — the row-oriented v2 of older
// releases included — is refused as unsupported, and recovery falls back to
// an older snapshot or refuses a partial database.
//
// A snapshot persists full MVCC history: tables are insert-only, so every
// row version is written with its born epoch, and a recovered database
// answers `AS OF <epoch>` queries exactly as the one that wrote the snapshot
// did.
//
// The codec is deliberately not JSONL: decoding a snapshot cell costs a type
// switch and a varint (a dictionary id for text), not a parse of a whole
// WAL line with its keys, quotes and escapes. This is where the recovery
// speedup over full WAL replay comes from (C11).
package record

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"

	"flordb/internal/relation"
)

// SnapshotVersion is the snapshot format version: the only one written and
// the only one read (recovery falls back to an older snapshot or a full
// replay on anything else).
const SnapshotVersion = 3

const snapshotMagic = "FLORSNAP"

// SnapshotMeta stamps a snapshot with what it covers.
type SnapshotMeta struct {
	Version   int   `json:"version"`
	Seq       int64 `json:"seq"`        // highest sealed WAL segment folded in
	MaxTstamp int64 `json:"max_tstamp"` // highest logical timestamp covered
	Epoch     int64 `json:"epoch"`      // committed epoch folded in (commit records since birth)
	// Epochs is the epoch↔commit-wall-clock map, ascending. Tail replay
	// extends it. A snapshot written by the epoch-retention GC of earlier
	// releases may start it above epoch 1 (and carry a min_epoch key, which
	// is ignored).
	Epochs []relation.EpochStamp `json:"epochs,omitempty"`
}

// snapshotTables returns the base tables in their fixed serialization order.
func (t *Tables) snapshotTables() []*relation.Table {
	return []*relation.Table{t.Logs, t.Loops, t.Ts2vid, t.ObjStore, t.Args}
}

// castagnoli is the CRC-32C table; Castagnoli is hardware-accelerated on
// amd64/arm64, which matters when checksumming a multi-MB snapshot on the
// recovery hot path.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// snapDict assigns dense ids to distinct strings in first-use order.
type snapDict struct {
	ids     map[string]uint64
	entries []string
}

func (d *snapDict) id(s string) uint64 {
	if id, ok := d.ids[s]; ok {
		return id
	}
	id := uint64(len(d.entries))
	d.ids[s] = id
	d.entries = append(d.entries, s)
	return id
}

// ReadSnapshot verifies and decodes a snapshot, then bulk-loads the rows
// into t (which must hold empty tables, as fresh from CreateTables or
// NewTables; indexes, if any, are built during the load). On any error the
// tables are left untouched: the checksum and the full decode happen before
// the first insert, so a corrupt snapshot is safe to fall back from.
func ReadSnapshot(data []byte, t *Tables) (SnapshotMeta, error) {
	meta, _, err := ReadSnapshotBase(data, t)
	return meta, err
}

// SnapshotBase is what a verified snapshot hands the writer of its
// successor: per base table, in snapshot order, the directory entry and the
// blob of each complete page, as slices of the file the reader verified.
// Tables are insert-only and page boundaries are absolute row offsets, so
// tables loaded from the snapshot and then extended still hold exactly
// those pages, and WriteSnapshotOver emits their bytes verbatim.
type SnapshotBase struct {
	pages [][]storedPage // indexed like Tables.snapshotTables
}

// storedPage is one complete page as the file stores it.
type storedPage struct {
	dir, blob []byte
}

// ReadSnapshotBase is ReadSnapshot that also returns the snapshot's verified
// complete pages. Every page — complete or not — passes the same checks
// before any is returned or loaded. The base holds data: it must not be
// modified while the base is in use.
func ReadSnapshotBase(data []byte, t *Tables) (SnapshotMeta, *SnapshotBase, error) {
	var meta SnapshotMeta
	if len(data) < len(snapshotMagic)+4 {
		return meta, nil, errors.New("record: snapshot truncated")
	}
	if string(data[:len(snapshotMagic)]) != snapshotMagic {
		return meta, nil, errors.New("record: bad snapshot magic")
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(trailer) {
		return meta, nil, errors.New("record: snapshot checksum mismatch")
	}
	rd := &snapReader{buf: body[len(snapshotMagic):]}
	metaJSON := rd.bytes(int(rd.uvarint()))
	if rd.err != nil {
		return meta, nil, rd.err
	}
	if err := json.Unmarshal(metaJSON, &meta); err != nil {
		return meta, nil, fmt.Errorf("record: snapshot meta: %w", err)
	}
	if meta.Version != SnapshotVersion {
		return meta, nil, fmt.Errorf("record: unsupported snapshot version %d", meta.Version)
	}
	base, err := readSnapshotV3(rd, t)
	return meta, base, err
}

// checkSnapCell validates a decoded cell against the schema column: type must
// match and NOT NULL must hold. Decode errors already latched in rd win.
func checkSnapCell(schema *relation.Schema, k int, v *relation.Value, rd *snapReader, table string, row int) error {
	if rd.err != nil {
		return nil // the latched decode error is reported by the caller
	}
	col := schema.Col(k)
	if v.IsNull() {
		if col.NotNull {
			return fmt.Errorf("record: snapshot %s row %d: NULL in NOT NULL column %q", table, row, col.Name)
		}
		return nil
	}
	if v.Type() != col.Type {
		return fmt.Errorf("record: snapshot %s row %d: column %q holds %v, want %v", table, row, col.Name, v.Type(), col.Type)
	}
	return nil
}

// snapReader is an error-latching cursor over the snapshot body.
type snapReader struct {
	buf []byte
	err error
}

func (rd *snapReader) fail(msg string) {
	if rd.err == nil {
		rd.err = errors.New("record: " + msg)
	}
}

func (rd *snapReader) uvarint() uint64 {
	if rd.err != nil {
		return 0
	}
	v, n := binary.Uvarint(rd.buf)
	if n <= 0 {
		rd.fail("snapshot: bad uvarint")
		return 0
	}
	rd.buf = rd.buf[n:]
	return v
}

func (rd *snapReader) varint() int64 {
	if rd.err != nil {
		return 0
	}
	v, n := binary.Varint(rd.buf)
	if n <= 0 {
		rd.fail("snapshot: bad varint")
		return 0
	}
	rd.buf = rd.buf[n:]
	return v
}

func (rd *snapReader) bytes(n int) []byte {
	if rd.err != nil {
		return nil
	}
	if n < 0 || n > len(rd.buf) {
		rd.fail("snapshot: length out of range")
		return nil
	}
	b := rd.buf[:n]
	rd.buf = rd.buf[n:]
	return b
}
