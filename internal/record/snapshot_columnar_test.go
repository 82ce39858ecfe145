package record

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"strings"
	"testing"
	"time"

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
// pages (two complete plus a partial), with epoch boundaries mid-page.
func columnarTables(t *testing.T) (*relation.Database, *Tables) {
	t.Helper()
	db := relation.NewDatabase()
	tables, err := CreateTables(db)
	if err != nil {
		t.Fatal(err)
	}
	total := 2*relation.ZonePageRows + relation.ZonePageRows/2
	for i := 0; i < total; i++ {
		_, err := tables.Logs.Insert(relation.Row{
			relation.Text(fmt.Sprintf("p%d", i%3)), relation.Int(int64(i)),
			relation.Text("train.flow"), relation.Int(int64(i % 7)),
			relation.Text([]string{"acc", "loss"}[i%2]), relation.Text("0.5"),
			relation.Int(int64(VTFloat)),
		})
		if err != nil {
			t.Fatal(err)
		}
		if i%512 == 0 {
			db.AdvanceEpoch(time.Now())
		}
	}
	db.AdvanceEpoch(time.Now())
	return db, tables
}

// snapshotDefects lists what tamperedSnapshot can put on disk: each is
// something only a writer with tombstones — or a buggy one — could produce.
var snapshotDefects = []string{"dead epoch", "max dead", "born decreases in a page", "born decreases across pages"}

// tamperedSnapshot writes a CRC-valid snapshot under meta whose logs table
// is sound and whose args table — the last table the reader decodes: two
// complete pages and a partial one — carries defect inside a complete page,
// the kind a compaction would copy. Its pages are framed uncompressed so the
// defect can be patched into the raw payload: born varints, then dead
// varints, one byte each for epochs below 64.
func tamperedSnapshot(tb testing.TB, meta SnapshotMeta, defect string) []byte {
	tb.Helper()
	tables, err := CreateTables(relation.NewDatabase())
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := tables.Apply(&LogRecord{Kind: KindLog, ProjID: "p", Tstamp: int64(i), Filename: "f",
			ValueName: "acc", Value: "0.5", ValueType: VTFloat}); err != nil {
			tb.Fatal(err)
		}
	}
	n := 2*relation.ZonePageRows + 2
	nPages := (n + relation.ZonePageRows - 1) / relation.ZonePageRows
	rows := make([]relation.Row, n)
	born := make([]int64, n)
	for i := range rows {
		rows[i] = relation.Row{relation.Text("p"), relation.Int(int64(i)), relation.Text("f"), relation.Text("lr"), relation.Text("0.1")}
		born[i] = int64(1 + i/512)
	}
	var maxDead int64
	switch defect {
	case "dead epoch", "":
	case "max dead":
		maxDead = 2
	case "born decreases in a page":
		born[700] = 1
	case "born decreases across pages":
		born[relation.ZonePageRows] = 1
	default:
		tb.Fatalf("unknown defect %q", defect)
	}
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		tb.Fatal(err)
	}
	data := append([]byte(snapshotMagic), binary.AppendUvarint(nil, uint64(len(metaJSON)))...)
	data = append(data, metaJSON...)
	for _, tbl := range tables.snapshotTables() {
		if tbl != tables.Args {
			if data, _, err = appendColumnarTable(data, tbl, nil); err != nil {
				tb.Fatal(err)
			}
			continue
		}
		data = binary.AppendUvarint(data, uint64(len(tbl.Name())))
		data = append(data, tbl.Name()...)
		data = binary.AppendUvarint(data, uint64(n))
		data = binary.AppendUvarint(data, uint64(nPages))
		var blobs []byte
		for lo := 0; lo < n; lo += relation.ZonePageRows {
			hi := min(lo+relation.ZonePageRows, n)
			raw, zone, err := encodeColumnarPage(tbl.Schema(), rows[lo:hi], born[lo:hi])
			if err != nil {
				tb.Fatal(err)
			}
			if defect == "dead epoch" && lo == 0 {
				raw[hi-lo+3] = 4 // zigzag varint 2: row 3 dead at epoch 2
			}
			blob := append([]byte{0}, binary.AppendUvarint(nil, uint64(len(raw)))...)
			blob = append(blob, raw...)
			blobs = append(blobs, blob...)
			// The directory entry with its max dead varint — the header's
			// last byte — replaced.
			hdr := appendPageDir(nil, &relation.PageZone{Rows: zone.Rows, MinBorn: zone.MinBorn, MaxBorn: zone.MaxBorn}, len(blob))
			full := appendPageDir(nil, &zone, len(blob))
			data = binary.AppendVarint(append(data, hdr[:len(hdr)-1]...), maxDead)
			data = append(data, full[len(hdr):]...)
		}
		data = append(data, blobs...)
	}
	return refixSnapshotCRC(append(data, 0, 0, 0, 0))
}

// TestSnapshotRefusesWhatTheProductCannotWrite: a nonzero dead epoch, a
// nonzero max dead, and a born below its predecessor's — within a page or
// across pages — are each refused with the tables untouched, while the
// same file without the defect loads.
func TestSnapshotRefusesWhatTheProductCannotWrite(t *testing.T) {
	meta := SnapshotMeta{Version: SnapshotVersion, Seq: 4, Epoch: 3}
	dst := snapTables(t)
	if _, err := ReadSnapshot(tamperedSnapshot(t, meta, ""), dst); err != nil {
		t.Fatalf("untampered control: %v", err)
	}
	if dst.Args.Len() != 2*relation.ZonePageRows+2 || dst.Logs.Len() != 3 {
		t.Fatalf("untampered control loaded %d args, %d logs", dst.Args.Len(), dst.Logs.Len())
	}
	for _, defect := range snapshotDefects {
		dst := snapTables(t)
		_, err := ReadSnapshot(tamperedSnapshot(t, meta, defect), dst)
		if err == nil {
			t.Fatalf("%s: accepted", defect)
		}
		if strings.Contains(err.Error(), "zone map") {
			t.Fatalf("%s: refused for the wrong reason: %v", defect, err)
		}
		t.Logf("%s: %v", defect, err)
		for _, tbl := range dst.snapshotTables() {
			if tbl.Len() != 0 {
				t.Fatalf("%s: table %s dirtied by the refused load", defect, tbl.Name())
			}
		}
	}
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
// pages, a trailing partial page, epoch spread — and proves the
// page directory's zone maps were installed into the reader's zone cache.
func TestSnapshotV3MultiPageRoundTrip(t *testing.T) {
	_, src := columnarTables(t)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, SnapshotMeta{Version: SnapshotVersion, Seq: 3}, src); err != nil {
		t.Fatal(err)
	}
	dst := snapTables(t)
	if _, err := ReadSnapshot(buf.Bytes(), dst); err != nil {
		t.Fatal(err)
	}
	srcRows, srcBorn := src.Logs.Versions()
	dstRows, dstBorn := dst.Logs.Versions()
	if len(srcRows) != len(dstRows) {
		t.Fatalf("version count %d != %d", len(dstRows), len(srcRows))
	}
	for i := range srcRows {
		if srcBorn[i] != dstBorn[i] {
			t.Fatalf("version %d born %d != %d", i, dstBorn[i], srcBorn[i])
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
	scan := relation.NewBatchScan(latest(dst.Logs), nil, relation.DefaultBatchSize)
	scan.SetZoneFilter(func(*relation.PageZone) bool { return true })
	got := 0
	for range relation.RowsOf(scan) {
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
	_, _, err := decodeColumnarPage(frame, schema, de, "logs", 0, nil, nil)
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
// the checksum. The reader must never panic, must leave the destination
// tables untouched whenever it reports an error, and must never load a
// store whose born epochs decrease. Seeds include every tamperedSnapshot
// defect, each of which TestSnapshotRefusesWhatTheProductCannotWrite
// requires the reader to refuse.
func FuzzColumnarPageRead(f *testing.F) {
	db := relation.NewDatabase()
	tables, err := CreateTables(db)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < relation.ZonePageRows+3; i++ {
		_, err := tables.Logs.Insert(relation.Row{
			relation.Text("p"), relation.Int(int64(i)), relation.Text("f"),
			relation.Int(int64(i)), relation.Text([]string{"acc", "loss"}[i%2]),
			relation.Text("0.5"), relation.Int(int64(VTFloat)),
		})
		if err != nil {
			f.Fatal(err)
		}
		if i%100 == 0 {
			db.AdvanceEpoch(time.Now())
		}
	}
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
	for _, d := range snapshotDefects {
		f.Add(tamperedSnapshot(f, SnapshotMeta{Version: SnapshotVersion, Seq: 1}, d))
	}

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
			return
		}
		for _, tbl := range dst.snapshotTables() {
			_, born := tbl.Versions()
			for i := 1; i < len(born); i++ {
				if born[i] < born[i-1] {
					t.Fatalf("table %s loaded with born %d after %d", tbl.Name(), born[i], born[i-1])
				}
			}
		}
	})
}

// nanLossTables logs a run's losses, every 97th of which diverged to NaN:
// one complete logs page and a partial one, an epoch every 100 rows.
func nanLossTables(t *testing.T) *Tables {
	t.Helper()
	db := relation.NewDatabase()
	tables, err := CreateTables(db)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < relation.ZonePageRows+40; i++ {
		v := float64(i%11) + 0.5
		if i%97 == 3 {
			v = math.NaN()
		}
		s, vt := FormatValue(v)
		if err := tables.Apply(&LogRecord{Kind: KindLog, ProjID: "p", Tstamp: int64(i / 100), Filename: "train.py",
			CtxID: int64(i), ValueName: "loss", Value: s, ValueType: vt}); err != nil {
			t.Fatal(err)
		}
		if i%100 == 99 {
			db.AdvanceEpoch(time.Unix(0, 0))
		}
	}
	db.AdvanceEpoch(time.Unix(0, 0))
	return tables
}

// TestSnapshotWithLoggedNaNLoss: testdata/nan_loss.snap holds nanLossTables
// as written by the build whose relation.Compare still let NaN equal every
// number. A logged float reaches logs.value as text ("NaN"), no snapshot
// table has a FLOAT column, and the reader refuses a float cell, so no
// persisted zone bounds a float: the ordering of NaN changes no zone on
// disk. The file opens, reads back every loss, and is byte for byte the file
// this writer writes from the same log.
func TestSnapshotWithLoggedNaNLoss(t *testing.T) {
	data, err := os.ReadFile("testdata/nan_loss.snap")
	if err != nil {
		t.Fatal(err)
	}
	dst := snapTables(t)
	if _, err := ReadSnapshot(data, dst); err != nil {
		t.Fatalf("snapshot with a logged NaN loss refused: %v", err)
	}
	above, nans, wantAbove, wantNaNs := 0, 0, 0, 0
	for i := 0; i < relation.ZonePageRows+40; i++ {
		switch {
		case i%97 == 3:
			wantNaNs++
		case float64(i%11)+0.5 > 5:
			wantAbove++
		}
	}
	for _, r := range latest(dst.Logs).Rows() {
		v := ParseValue(r[5].AsText(), ValueType(r[6].AsInt()))
		switch f := v.AsFloat(); {
		case math.IsNaN(f):
			nans++
		case f > 5:
			above++
		}
	}
	if above != wantAbove || nans != wantNaNs {
		t.Fatalf("losses above 5: %d, NaN: %d; want %d and %d", above, nans, wantAbove, wantNaNs)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, SnapshotMeta{Version: SnapshotVersion, Seq: 7, MaxTstamp: 10}, nanLossTables(t)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatal("this writer writes the logged NaN losses differently from the file on disk")
	}
}
