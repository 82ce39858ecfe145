package record

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"flordb/internal/relation"
)

// refixSnapshotCRC rewrites the 4-byte CRC-32C trailer to match the (possibly
// tampered) body, so byte-surgery tests and the fuzz target exercise the
// columnar decoder's own guards rather than bouncing off the checksum.
func refixSnapshotCRC(data []byte) []byte {
	if len(data) < len(snapshotMagic)+4 {
		return data
	}
	sum := crc32.Checksum(data[:len(data)-4], castagnoli)
	binary.LittleEndian.PutUint32(data[len(data)-4:], sum)
	return data
}

// columnarTables builds a Tables set whose logs table spans several zone
// pages (two complete plus a partial), with epoch structure and tombstones.
func columnarTables(t *testing.T) (*relation.Database, *Tables) {
	t.Helper()
	db := relation.NewDatabase()
	tables, err := CreateTables(db)
	if err != nil {
		t.Fatal(err)
	}
	var ids []relation.RowID
	total := 2*relation.ZonePageRows + relation.ZonePageRows/2
	for i := 0; i < total; i++ {
		id, err := tables.Logs.Insert(relation.Row{
			relation.Text(fmt.Sprintf("p%d", i%3)), relation.Int(int64(i)),
			relation.Text("train.flow"), relation.Int(int64(i % 7)),
			relation.Text([]string{"acc", "loss"}[i%2]), relation.Text("0.5"),
			relation.Int(int64(VTFloat)),
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		if i%512 == 0 {
			db.AdvanceEpoch()
		}
	}
	for i := 0; i < len(ids); i += 37 {
		tables.Logs.Delete(ids[i])
	}
	db.AdvanceEpoch()
	return db, tables
}

// TestSnapshotV2ReadCompatibility pins what is left of v2 compatibility: a
// CRC-valid file stamped with the row-oriented v2 header of older releases is
// refused as an unsupported version and leaves the tables untouched, so
// recovery falls back to an older snapshot or refuses a partial database.
func TestSnapshotV2ReadCompatibility(t *testing.T) {
	metaJSON := []byte(`{"version":2,"seq":9,"max_tstamp":9}`)
	data := append([]byte(snapshotMagic), binary.AppendUvarint(nil, uint64(len(metaJSON)))...)
	data = append(data, metaJSON...)
	data = append(data, 0)                            // v2 string dictionary: no entries
	data = refixSnapshotCRC(append(data, 0, 0, 0, 0)) // trailer
	dst := snapTables(t)
	meta, err := ReadSnapshot(data, dst)
	if err == nil || !strings.Contains(err.Error(), "unsupported snapshot version 2") {
		t.Fatalf("v2 snapshot: err = %v, want unsupported snapshot version 2", err)
	}
	if meta.Version != 2 || meta.Seq != 9 {
		t.Fatalf("meta = %+v, want the refused file's version and seq", meta)
	}
	for _, tbl := range dst.snapshotTables() {
		if tbl.Len() != 0 {
			t.Fatalf("table %s dirtied by the refused load", tbl.Name())
		}
	}
}

// TestSnapshotV3MultiPageRoundTrip round-trips a multi-page table — complete
// pages, a trailing partial page, tombstones, epoch spread — and proves the
// page directory's zone maps were installed into the reader's zone cache.
func TestSnapshotV3MultiPageRoundTrip(t *testing.T) {
	_, src := columnarTables(t)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, SnapshotMeta{Version: SnapshotVersion, Seq: 3, MinEpoch: 0}, src); err != nil {
		t.Fatal(err)
	}
	dst := snapTables(t)
	if _, err := ReadSnapshot(buf.Bytes(), dst); err != nil {
		t.Fatal(err)
	}
	srcRows, srcBorn, srcDead := src.Logs.Versions()
	dstRows, dstBorn, dstDead := dst.Logs.Versions()
	if len(srcRows) != len(dstRows) {
		t.Fatalf("version count %d != %d", len(dstRows), len(srcRows))
	}
	for i := range srcRows {
		if srcBorn[i] != dstBorn[i] || srcDead[i] != dstDead[i] {
			t.Fatalf("version %d epochs (%d,%d) != (%d,%d)", i, dstBorn[i], dstDead[i], srcBorn[i], srcDead[i])
		}
		for c := range srcRows[i] {
			if relation.Compare(srcRows[i][c], dstRows[i][c]) != 0 {
				t.Fatalf("version %d col %d: %v != %v", i, c, dstRows[i][c], srcRows[i][c])
			}
		}
	}
	// Zone maps must be live after the load: a skip-everything zone filter
	// prunes exactly the complete pages, leaving only trailing-partial-page
	// rows. If the directory zones were dropped, nothing would be pruned.
	scan := relation.NewBatchScan(dst.Logs, nil, relation.DefaultBatchSize)
	scan.SetZoneFilter(func(*relation.PageZone) bool { return true })
	it := relation.NewRowsFromBatches(scan)
	got := 0
	for {
		if _, ok := it.Next(); !ok {
			break
		}
		got++
	}
	all := dst.Logs.Len()
	complete := len(dstRows) / relation.ZonePageRows * relation.ZonePageRows
	if got >= all || got > all-complete+relation.ZonePageRows {
		t.Fatalf("skip-all zone filter pruned nothing (saw %d of %d rows): directory zones not installed", got, all)
	}
}

// TestSnapshotV3ZoneDirectoryDisagreeRejected flips one byte inside a
// directory zone bound (with the CRC re-fixed, as a buggy writer would
// produce) and requires the reader to reject the snapshot: a zone that lies
// would make query-time pruning unsound.
func TestSnapshotV3ZoneDirectoryDisagreeRejected(t *testing.T) {
	db := relation.NewDatabase()
	tables, err := CreateTables(db)
	if err != nil {
		t.Fatal(err)
	}
	// One full page of a single repeated value_name, so the directory's
	// min == max == needle and the needle's first occurrence in the file is
	// the directory Min (the page blob only holds it as a dictionary entry,
	// after the directory).
	const needle = "zoneneedle"
	for i := 0; i < relation.ZonePageRows; i++ {
		if _, err := tables.Logs.Insert(relation.Row{
			relation.Text("p"), relation.Int(int64(i)), relation.Text("f"),
			relation.Int(1), relation.Text(needle), relation.Text("1"), relation.Int(0),
		}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, SnapshotMeta{Version: SnapshotVersion, Seq: 1}, tables); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	off := bytes.Index(data, []byte(needle))
	if off < 0 {
		t.Fatal("needle not found in snapshot bytes")
	}
	data[off] ^= 1 // directory Min now names a value the page doesn't hold
	refixSnapshotCRC(data)
	dst := snapTables(t)
	_, err = ReadSnapshot(data, dst)
	if err == nil {
		t.Fatal("disagreeing zone directory accepted")
	}
	for _, tbl := range dst.snapshotTables() {
		if tbl.Len() != 0 {
			t.Fatalf("table %s dirtied by rejected load", tbl.Name())
		}
	}
}

// TestSnapshotV3RejectsHugeRowCount: a CRC-valid snapshot claiming 2^61 versions must fail with an error, not overflow an
// allocation.
func TestSnapshotV3RejectsHugeRowCount(t *testing.T) {
	src := snapTables(t)
	data := encodeSnapshot(t, SnapshotMeta{Version: SnapshotVersion}, src)
	// v3 table section: uvarint name length, name, then the version-count
	// uvarint we overwrite (0 → one byte for empty tables).
	rd := data[len(snapshotMagic):]
	metaLen, n := binaryUvarint(rd)
	rd = rd[n+int(metaLen):]
	nameLen, n := binaryUvarint(rd)
	countOff := len(data) - len(rd) + n + int(nameLen)
	mut := append([]byte(nil), data[:countOff]...)
	mut = append(mut, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x20) // uvarint 2^61
	mut = append(mut, data[countOff+1:]...)
	refixSnapshotCRC(mut)
	if _, err := ReadSnapshot(mut, snapTables(t)); err == nil {
		t.Fatal("huge v3 row count accepted")
	}
}

// TestSnapshotV3TruncatedPageRejected drops bytes from the tail of the last
// page blob (CRC re-fixed) and requires a clean error.
func TestSnapshotV3TruncatedPageRejected(t *testing.T) {
	_, src := columnarTables(t)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, SnapshotMeta{Version: SnapshotVersion, Seq: 1}, src); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	mut := append([]byte(nil), data[:len(data)-9]...) // 5 payload bytes + CRC
	mut = append(mut, data[len(data)-4:]...)
	refixSnapshotCRC(mut)
	dst := snapTables(t)
	if _, err := ReadSnapshot(mut, dst); err == nil {
		t.Fatal("truncated page accepted")
	}
	for _, tbl := range dst.snapshotTables() {
		if tbl.Len() != 0 {
			t.Fatalf("table %s dirtied by rejected load", tbl.Name())
		}
	}
}

// TestColumnarPageDictionaryIndexOutOfRange hand-crafts a raw page whose
// dictionary index points past the dictionary and decodes it directly.
func TestColumnarPageDictionaryIndexOutOfRange(t *testing.T) {
	schema := relation.MustSchema(relation.Column{Name: "s", Type: relation.TText})
	// 1 row: born=1, dead=0, NULL bitmap 0x00, tag 's', dict {"a"}, index 5.
	raw := binary.AppendVarint(nil, 1)
	raw = binary.AppendVarint(raw, 0)
	raw = append(raw, 0x00, 's')
	raw = binary.AppendUvarint(raw, 1)
	raw = binary.AppendUvarint(raw, 1)
	raw = append(raw, 'a')
	raw = binary.AppendUvarint(raw, 5)
	frame := append([]byte{0}, binary.AppendUvarint(nil, uint64(len(raw)))...)
	frame = append(frame, raw...)
	de := &pageDirEntry{rows: 1, blobLen: len(frame)}
	_, _, _, err := decodeColumnarPage(frame, schema, de, "logs", 0, nil, nil, nil)
	if err == nil {
		t.Fatal("out-of-range dictionary index accepted")
	}
}

// TestUnframePageGuards covers the compression-frame validations that keep a
// tiny crafted blob from demanding a huge allocation or slipping trailing
// garbage past the decoder.
func TestUnframePageGuards(t *testing.T) {
	if _, err := unframePage(nil); err == nil {
		t.Fatal("empty blob accepted")
	}
	if _, err := unframePage([]byte{7, 1, 0}); err == nil {
		t.Fatal("unknown compression tag accepted")
	}
	// DEFLATE frame claiming a payload far beyond the max expansion ratio.
	huge := append([]byte{1}, binary.AppendUvarint(nil, 1<<40)...)
	huge = append(huge, 0xDE, 0xAD)
	if _, err := unframePage(huge); err == nil {
		t.Fatal("absurd payload length accepted")
	}
	// Raw frame whose declared length disagrees with the body.
	bad := append([]byte{0}, binary.AppendUvarint(nil, 10)...)
	bad = append(bad, 1, 2, 3)
	if _, err := unframePage(bad); err == nil {
		t.Fatal("raw length mismatch accepted")
	}
}

// FuzzColumnarPageRead drives arbitrary mutations of a valid v3 snapshot
// through the columnar reader with the CRC trailer re-fixed, so the fuzzer
// reaches the page directory, frame, and cell decoders instead of stopping at
// the checksum. The reader must never panic and must leave the destination
// tables untouched whenever it reports an error.
func FuzzColumnarPageRead(f *testing.F) {
	db := relation.NewDatabase()
	tables, err := CreateTables(db)
	if err != nil {
		f.Fatal(err)
	}
	var ids []relation.RowID
	for i := 0; i < relation.ZonePageRows+3; i++ {
		id, err := tables.Logs.Insert(relation.Row{
			relation.Text("p"), relation.Int(int64(i)), relation.Text("f"),
			relation.Int(int64(i)), relation.Text([]string{"acc", "loss"}[i%2]),
			relation.Text("0.5"), relation.Int(int64(VTFloat)),
		})
		if err != nil {
			f.Fatal(err)
		}
		ids = append(ids, id)
		if i%100 == 0 {
			db.AdvanceEpoch()
		}
	}
	tables.Logs.Delete(ids[5])
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, SnapshotMeta{Version: SnapshotVersion, Seq: 1, MaxTstamp: 1}, tables); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(append([]byte(nil), valid...))
	f.Add(append([]byte(nil), valid[:len(valid)/2]...)) // truncated mid-pages
	dirCorrupt := append([]byte(nil), valid...)
	dirCorrupt[len(snapshotMagic)+90] ^= 0xFF // inside the first page directory
	f.Add(dirCorrupt)
	f.Add([]byte(snapshotMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		data = refixSnapshotCRC(append([]byte(nil), data...))
		dst, err := CreateTables(relation.NewDatabase())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ReadSnapshot(data, dst); err != nil {
			for _, tbl := range dst.snapshotTables() {
				if tbl.Len() != 0 {
					t.Fatalf("failed load dirtied table %s", tbl.Name())
				}
			}
		}
	})
}
