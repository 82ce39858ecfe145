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
// A snapshot persists full MVCC history: every row version carries its
// born/dead epochs, so a recovered database answers `AS OF <epoch>` queries
// exactly as the one that wrote the snapshot did. Versions tombstoned at or
// below the retention floor (meta min_epoch) are folded out at write time —
// this is how the epoch-retention GC's reclamation becomes durable.
//
// The codec is deliberately not JSONL: decoding a snapshot cell costs a type
// switch and a varint, not two reflective json.Unmarshal calls. This is
// where the ≥10× recovery speedup over full WAL replay comes from (C11).
package record

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"flordb/internal/relation"
)

// SnapshotVersion is the snapshot format version: the only one written and
// the only one read (recovery falls back to an older snapshot or a full
// replay on anything else).
const SnapshotVersion = 3

const snapshotMagic = "FLORSNAP"

// EpochStamp maps one committed epoch to the wall-clock time of the commit
// that published it. The ordered list of stamps is the persisted
// epoch↔timestamp map that `AS OF TIMESTAMP` resolution binary-searches.
type EpochStamp struct {
	Epoch int64 `json:"e"`
	Wall  int64 `json:"w"` // commit wall clock, Unix nanoseconds UTC
}

// SnapshotMeta stamps a snapshot with what it covers.
type SnapshotMeta struct {
	Version   int   `json:"version"`
	Seq       int64 `json:"seq"`        // highest sealed WAL segment folded in
	MaxTstamp int64 `json:"max_tstamp"` // highest logical timestamp covered
	Epoch     int64 `json:"epoch"`      // committed epoch folded in (commit records since birth)
	MinEpoch  int64 `json:"min_epoch,omitempty"`
	// Epochs is the epoch↔commit-wall-clock map for epochs in
	// [MinEpoch, Epoch], ascending. Tail replay extends it.
	Epochs []EpochStamp `json:"epochs,omitempty"`
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

// WriteSnapshot serializes the tables to w under the given meta, whose
// Version must be SnapshotVersion for the file to be readable. The caller
// owns durability (buffering, fsync, atomic rename).
func WriteSnapshot(w io.Writer, meta SnapshotMeta, t *Tables) error {
	return WriteSnapshotHook(w, meta, t, nil)
}

// snapPersists reports whether a row version belongs in a snapshot with the
// given retention floor: it must have a payload (not reclaimed in memory) and
// must still be visible at some epoch >= floor.
func snapPersists(r relation.Row, dead, minEpoch int64) bool {
	return r != nil && (dead == 0 || dead > minEpoch)
}

// ReadSnapshot verifies and decodes a snapshot, then bulk-loads the rows
// into t (which must hold empty tables, as fresh from CreateTables; indexes
// are rebuilt during the load). On any error the tables are left untouched:
// the checksum and the full decode happen before the first insert, so a
// corrupt snapshot is safe to fall back from.
func ReadSnapshot(data []byte, t *Tables) (SnapshotMeta, error) {
	var meta SnapshotMeta
	if len(data) < len(snapshotMagic)+4 {
		return meta, errors.New("record: snapshot truncated")
	}
	if string(data[:len(snapshotMagic)]) != snapshotMagic {
		return meta, errors.New("record: bad snapshot magic")
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(trailer) {
		return meta, errors.New("record: snapshot checksum mismatch")
	}
	rd := &snapReader{buf: body[len(snapshotMagic):]}
	metaJSON := rd.bytes(int(rd.uvarint()))
	if rd.err != nil {
		return meta, rd.err
	}
	if err := json.Unmarshal(metaJSON, &meta); err != nil {
		return meta, fmt.Errorf("record: snapshot meta: %w", err)
	}
	if meta.Version != SnapshotVersion {
		return meta, fmt.Errorf("record: unsupported snapshot version %d", meta.Version)
	}
	return meta, readSnapshotV3(rd, t)
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
