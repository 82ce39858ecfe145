// Columnar (v3) snapshot codec: the table sections inside the FLORSNAP
// container (magic, JSON meta, CRC-32C trailer — snapshot.go). Each table is
// split into pages of relation.ZonePageRows versions, and a page directory
// ahead of the page blobs carries per-page zone maps
// (born-epoch bounds, per-column min/max and NULL counts) so the reader can
// seed the in-memory zone cache without a rebuild pass.
//
// Pages are also the unit a compaction copies. Tables are insert-only and a
// page's boundaries are absolute row offsets, so a complete page — one of
// ZonePageRows versions — never changes once written, and the encoding of a
// page is a function of its rows alone. The reader therefore hands back the
// directory entry and blob bytes of every complete page it verified
// (ReadSnapshotBase), and the next snapshot's writer copies them verbatim,
// encoding only from the first incomplete page onward (WriteSnapshotOver).
// When this writer wrote the base, the file is byte-identical to a full
// rewrite of the same tables (storage's TestIncrementalSnapshotEqualsFullRewrite
// holds that property).
//
// Layout after the magic + meta prefix:
//
//	per base table, in Tables order (logs, loops, ts2vid, obj_store, args):
//	    uvarint name length, name
//	    uvarint persisted version count
//	    uvarint page count (must equal ceil(count / ZonePageRows))
//	    page directory, per page:
//	        uvarint rows in page (ZonePageRows for all but the last)
//	        uvarint page blob length in bytes
//	        zigzag varint min born, max born, max dead (always 0: tables
//	            are insert-only, and the reader refuses anything else)
//	        per schema column: uvarint NULL count, plain-coded min,
//	            plain-coded max (both NULL if the page has no non-NULL cell)
//	    page blobs, concatenated in page order
//	4-byte LE CRC-32C trailer
//
// Page blob framing: one compression tag (0 = raw, 1 = DEFLATE), uvarint
// decoded payload length, payload bytes. DEFLATE is used only when it
// actually shrinks the page. The decoded payload is:
//
//	born epochs: zigzag varint × rows, nondecreasing across the table
//	dead epochs: zigzag varint × rows (always 0, as above)
//	per schema column:
//	    NULL bitmap, ceil(rows/8) bytes, bit set = NULL
//	    one encoding tag, then the non-NULL cells in row order:
//	    'i' zigzag varint            'f' 8-byte LE float bits
//	    's' page-local dictionary: uvarint entry count, entries as
//	        uvarint len + bytes, then one uvarint index per cell
//	    'B' value bitmap over the non-NULL cells, bit set = true
//	    't' zigzag varint UnixNano   'x' uvarint len + blob bytes
//	    'v' one plain-coded value per cell (mixed-type fallback)
//
// Plain value coding (directory min/max and 'v' cells): one tag byte —
// 'N' NULL, 'i' zigzag varint, 'S' uvarint len + text bytes, 'f' 8-byte LE
// float bits, 'b'/'B' bool, 't' zigzag varint UnixNano, 'x' uvarint len +
// blob bytes. There is no global string dictionary: strings repeat
// page-locally, and page-local dictionaries keep pages independently
// decodable.
//
// The reader recomputes every page's zone from the decoded cells and rejects
// the snapshot if the directory disagrees — the zone cache feeds query-time
// page pruning, so a zone that lies must never be installed. It also refuses
// what the product cannot write: a nonzero dead epoch or max dead, and a born
// below its predecessor's, which would break the prefix invariant every
// reader relies on (DESIGN §8). Corruption is already caught by the CRC;
// this guards against writer bugs and keeps the prune-is-conservative proof
// obligation (DESIGN §13) local to one codec.
package record

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"

	"flordb/internal/relation"
)

// WriteSnapshot serializes the tables to w under the given meta: it is
// WriteSnapshotOver with no base, so every page is encoded.
func WriteSnapshot(w io.Writer, meta SnapshotMeta, t *Tables) error {
	_, _, err := WriteSnapshotOver(w, meta, t, nil)
	return err
}

// WriteSnapshotOver serializes the tables to w under the given meta, whose
// Version must be SnapshotVersion for the file to be readable: one Write for
// the magic, one for the meta, one per table section and one for the CRC
// trailer, so a crash mid-file leaves a prefix of whole sections or a torn
// one. The caller owns durability (buffering, fsync, atomic rename).
//
// base, when non-nil, is the snapshot t was loaded from (ReadSnapshotBase):
// its complete pages are copied byte for byte, and only the pages after
// them are encoded. Page encoding is deterministic, so the file is the one
// a nil base produces whenever the base was written by this writer. It
// returns how many pages were copied and how many encoded.
func WriteSnapshotOver(w io.Writer, meta SnapshotMeta, t *Tables, base *SnapshotBase) (copied, encoded int, err error) {
	h := crc32.New(castagnoli)
	mw := io.MultiWriter(w, h)
	if _, err := mw.Write([]byte(snapshotMagic)); err != nil {
		return 0, 0, fmt.Errorf("record: write snapshot: %w", err)
	}
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return 0, 0, fmt.Errorf("record: snapshot meta: %w", err)
	}
	buf := binary.AppendUvarint(nil, uint64(len(metaJSON)))
	buf = append(buf, metaJSON...)
	if _, err := mw.Write(buf); err != nil {
		return 0, 0, fmt.Errorf("record: write snapshot: %w", err)
	}
	for ti, tbl := range t.snapshotTables() {
		var stored []storedPage
		if base != nil {
			stored = base.pages[ti]
		}
		sec, n, err := appendColumnarTable(buf[:0], tbl, stored)
		if err != nil {
			return 0, 0, err
		}
		if _, err := mw.Write(sec); err != nil {
			return 0, 0, fmt.Errorf("record: write snapshot: %w", err)
		}
		copied += len(stored)
		encoded += n
		buf = sec // recycle the section buffer across tables
	}
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], h.Sum32())
	if _, err := w.Write(trailer[:]); err != nil {
		return 0, 0, fmt.Errorf("record: write snapshot: %w", err)
	}
	return copied, encoded, nil
}

// appendColumnarTable appends one table section (header, page directory,
// page blobs) to dst, persisting every version. The table's first
// len(stored) pages are the stored ones, copied; the rest are encoded, and
// their number is returned.
func appendColumnarTable(dst []byte, tbl *relation.Table, stored []storedPage) ([]byte, int, error) {
	rows, born := tbl.Versions()
	name := tbl.Name()
	if len(stored)*relation.ZonePageRows > len(rows) {
		return nil, 0, fmt.Errorf("record: snapshot %s: base has %d complete pages, table holds %d rows", name, len(stored), len(rows))
	}
	schema := tbl.Schema()
	nPages := (len(rows) + relation.ZonePageRows - 1) / relation.ZonePageRows
	pages := make([]storedPage, nPages)
	copy(pages, stored)
	var cb bytes.Buffer
	fw, err := flate.NewWriter(&cb, flate.BestSpeed)
	if err != nil {
		return nil, 0, fmt.Errorf("record: snapshot compressor: %w", err)
	}
	for p := len(stored); p < nPages; p++ {
		lo := p * relation.ZonePageRows
		hi := min(lo+relation.ZonePageRows, len(rows))
		raw, zone, err := encodeColumnarPage(schema, rows[lo:hi], born[lo:hi])
		if err != nil {
			return nil, 0, fmt.Errorf("record: snapshot %s page %d: %w", name, p, err)
		}
		blob := framePage(raw, fw, &cb)
		pages[p] = storedPage{dir: appendPageDir(nil, &zone, len(blob)), blob: blob}
	}
	dst = binary.AppendUvarint(dst, uint64(len(name)))
	dst = append(dst, name...)
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	dst = binary.AppendUvarint(dst, uint64(nPages))
	for _, pg := range pages {
		dst = append(dst, pg.dir...)
	}
	for _, pg := range pages {
		dst = append(dst, pg.blob...)
	}
	return dst, nPages - len(stored), nil
}

// encodeColumnarPage encodes one page of versions as a raw (uncompressed)
// page payload and computes its zone map from the same cells in the same
// order the reader will revisit them.
func encodeColumnarPage(schema *relation.Schema, rows []relation.Row, born []int64) ([]byte, relation.PageZone, error) {
	width := schema.Len()
	n := len(rows)
	acc := newPageZoneAcc(width)
	raw := make([]byte, 0, n*width*4)
	for _, b := range born {
		acc.addVersion(b)
	}
	for _, b := range born {
		raw = binary.AppendVarint(raw, b)
	}
	for range born {
		raw = binary.AppendVarint(raw, 0) // dead epoch
	}
	bitmap := make([]byte, (n+7)/8)
	vals := make([]*relation.Value, 0, n)
	for c := 0; c < width; c++ {
		for i := range bitmap {
			bitmap[i] = 0
		}
		vals = vals[:0]
		colType := schema.Col(c).Type
		uniform := true
		for j, r := range rows {
			v := &r[c]
			acc.addCell(c, v)
			if v.IsNull() {
				bitmap[j>>3] |= 1 << (j & 7)
				continue
			}
			if v.Type() != colType {
				uniform = false
			}
			vals = append(vals, v)
		}
		raw = append(raw, bitmap...)
		// Pick the column encoding from the schema type when every non-NULL
		// cell honors it (always true for SQL-written data); fall back to
		// per-cell plain coding otherwise rather than failing the snapshot.
		tag := byte('v')
		if uniform {
			switch colType {
			case relation.TInt:
				tag = 'i'
			case relation.TText:
				tag = 's'
			case relation.TFloat:
				tag = 'f'
			case relation.TBool:
				tag = 'B'
			case relation.TTime:
				tag = 't'
			case relation.TBlob:
				tag = 'x'
			}
		}
		raw = append(raw, tag)
		switch tag {
		case 'i':
			for _, v := range vals {
				raw = binary.AppendVarint(raw, v.AsInt())
			}
		case 's':
			dict := &snapDict{ids: make(map[string]uint64, 64)}
			idxs := make([]uint64, len(vals))
			for k, v := range vals {
				idxs[k] = dict.id(v.AsText())
			}
			raw = binary.AppendUvarint(raw, uint64(len(dict.entries)))
			for _, e := range dict.entries {
				raw = binary.AppendUvarint(raw, uint64(len(e)))
				raw = append(raw, e...)
			}
			for _, id := range idxs {
				raw = binary.AppendUvarint(raw, id)
			}
		case 'f':
			var b [8]byte
			for _, v := range vals {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.AsFloat()))
				raw = append(raw, b[:]...)
			}
		case 'B':
			vb := make([]byte, (len(vals)+7)/8)
			for k, v := range vals {
				if v.AsBool() {
					vb[k>>3] |= 1 << (k & 7)
				}
			}
			raw = append(raw, vb...)
		case 't':
			for _, v := range vals {
				raw = binary.AppendVarint(raw, v.AsTime().UnixNano())
			}
		case 'x':
			for _, v := range vals {
				b := v.AsBlob()
				raw = binary.AppendUvarint(raw, uint64(len(b)))
				raw = append(raw, b...)
			}
		default:
			for _, v := range vals {
				raw = appendPlainValue(raw, v)
			}
		}
	}
	return raw, acc.z, nil
}

// framePage wraps a raw page payload in the compression frame, keeping the
// DEFLATE form only when it is strictly smaller.
func framePage(raw []byte, fw *flate.Writer, cb *bytes.Buffer) []byte {
	cb.Reset()
	fw.Reset(cb)
	fw.Write(raw) //nolint:errcheck // bytes.Buffer writes cannot fail
	fw.Close()    //nolint:errcheck
	frame := make([]byte, 0, len(raw)+binary.MaxVarintLen64+1)
	if cb.Len() < len(raw) {
		frame = append(frame, 1)
		frame = binary.AppendUvarint(frame, uint64(len(raw)))
		return append(frame, cb.Bytes()...)
	}
	frame = append(frame, 0)
	frame = binary.AppendUvarint(frame, uint64(len(raw)))
	return append(frame, raw...)
}

// appendPageDir appends one page's directory entry.
func appendPageDir(dst []byte, z *relation.PageZone, blobLen int) []byte {
	dst = binary.AppendUvarint(dst, uint64(z.Rows))
	dst = binary.AppendUvarint(dst, uint64(blobLen))
	dst = binary.AppendVarint(dst, z.MinBorn)
	dst = binary.AppendVarint(dst, z.MaxBorn)
	dst = binary.AppendVarint(dst, 0) // max dead
	for c := range z.Cols {
		cz := &z.Cols[c]
		dst = binary.AppendUvarint(dst, uint64(cz.NullCount))
		dst = appendPlainValue(dst, &cz.Min)
		dst = appendPlainValue(dst, &cz.Max)
	}
	return dst
}

// pageZoneAcc accumulates a page's zone map. Writer and reader both run it
// over the page's cells in row order, so the persisted and recomputed zones
// can be compared field-for-field.
type pageZoneAcc struct {
	z relation.PageZone
}

func newPageZoneAcc(width int) *pageZoneAcc {
	return &pageZoneAcc{z: relation.PageZone{Cols: make([]relation.ColZone, width)}}
}

func (a *pageZoneAcc) addVersion(born int64) {
	if a.z.Rows == 0 {
		a.z.MinBorn, a.z.MaxBorn = born, born
	} else if born < a.z.MinBorn {
		a.z.MinBorn = born
	} else if born > a.z.MaxBorn {
		a.z.MaxBorn = born
	}
	a.z.Rows++
}

func (a *pageZoneAcc) addCell(c int, v *relation.Value) {
	cz := &a.z.Cols[c]
	if v.IsNull() {
		cz.NullCount++
		return
	}
	if cz.Min.IsNull() {
		cz.Min, cz.Max = *v, *v
		return
	}
	if relation.ComparePtr(v, &cz.Min) < 0 {
		cz.Min = *v
	} else if relation.ComparePtr(v, &cz.Max) > 0 {
		cz.Max = *v
	}
}

// zoneEqual compares a directory zone against a recomputed one. Min/max
// equality under ComparePtr is enough: pruning only ever uses the total
// order, so two Compare-equal bounds prune identically.
func zoneEqual(a, b *relation.PageZone) bool {
	if a.MinBorn != b.MinBorn || a.MaxBorn != b.MaxBorn ||
		a.Rows != b.Rows || len(a.Cols) != len(b.Cols) {
		return false
	}
	for c := range a.Cols {
		x, y := &a.Cols[c], &b.Cols[c]
		if x.NullCount != y.NullCount ||
			x.Min.IsNull() != y.Min.IsNull() || x.Max.IsNull() != y.Max.IsNull() {
			return false
		}
		if !x.Min.IsNull() &&
			(relation.ComparePtr(&x.Min, &y.Min) != 0 || relation.ComparePtr(&x.Max, &y.Max) != 0) {
			return false
		}
	}
	return true
}

func appendPlainValue(dst []byte, v *relation.Value) []byte {
	switch v.Type() {
	case relation.TInt:
		dst = append(dst, 'i')
		return binary.AppendVarint(dst, v.AsInt())
	case relation.TText:
		s := v.AsText()
		dst = append(dst, 'S')
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		return append(dst, s...)
	case relation.TFloat:
		dst = append(dst, 'f')
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.AsFloat()))
		return append(dst, b[:]...)
	case relation.TBool:
		if v.AsBool() {
			return append(dst, 'B')
		}
		return append(dst, 'b')
	case relation.TTime:
		dst = append(dst, 't')
		return binary.AppendVarint(dst, v.AsTime().UnixNano())
	case relation.TBlob:
		b := v.AsBlob()
		dst = append(dst, 'x')
		dst = binary.AppendUvarint(dst, uint64(len(b)))
		return append(dst, b...)
	default: // TNull
		return append(dst, 'N')
	}
}

// plainValueInto decodes one plain-coded value (no dictionary indirection).
func (rd *snapReader) plainValueInto(dst *relation.Value) {
	if rd.err != nil {
		return
	}
	if len(rd.buf) == 0 {
		rd.fail("snapshot: truncated value")
		return
	}
	tag := rd.buf[0]
	rd.buf = rd.buf[1:]
	switch tag {
	case 'N':
	case 'i':
		*dst = relation.Int(rd.varint())
	case 'S':
		*dst = relation.Text(string(rd.bytes(int(rd.uvarint()))))
	case 'f':
		b := rd.bytes(8)
		if rd.err != nil {
			return
		}
		*dst = relation.Float(math.Float64frombits(binary.LittleEndian.Uint64(b)))
	case 'b':
		*dst = relation.Bool(false)
	case 'B':
		*dst = relation.Bool(true)
	case 't':
		*dst = relation.Time(time.Unix(0, rd.varint()).UTC())
	case 'x':
		b := rd.bytes(int(rd.uvarint()))
		if rd.err != nil {
			return
		}
		*dst = relation.Blob(append([]byte(nil), b...))
	default:
		rd.fail(fmt.Sprintf("snapshot: unknown value tag %q", tag))
	}
}

// pageDirEntry is one decoded page-directory row.
type pageDirEntry struct {
	rows    int
	blobLen int
	zone    relation.PageZone
}

// readSnapshotV3 decodes the columnar table sections, bulk-loads the rows,
// installs the verified zone maps of all complete pages, and returns those
// pages' bytes. It is all-or-nothing: every byte is validated before the
// first LoadVersions, so a corrupt snapshot is safe to fall back from.
func readSnapshotV3(rd *snapReader, t *Tables) (*SnapshotBase, error) {
	tbls := t.snapshotTables()
	batches := make([][]relation.Row, len(tbls))
	borns := make([][]int64, len(tbls))
	zoneSets := make([][]relation.PageZone, len(tbls))
	base := &SnapshotBase{pages: make([][]storedPage, len(tbls))}
	for ti, tbl := range tbls {
		name := string(rd.bytes(int(rd.uvarint())))
		if rd.err != nil {
			return nil, rd.err
		}
		if name != tbl.Name() {
			return nil, fmt.Errorf("record: snapshot table %q, want %q", name, tbl.Name())
		}
		schema := tbl.Schema()
		width := schema.Len()
		total := int(rd.uvarint())
		nPages := int(rd.uvarint())
		// Directory entries cost at least one byte each, so nPages is
		// bounded by the remaining input; this also bounds total (and with
		// it every allocation below) by ~ZonePageRows × the input size.
		if rd.err != nil || total < 0 || width <= 0 ||
			nPages != (total+relation.ZonePageRows-1)/relation.ZonePageRows ||
			nPages > len(rd.buf) {
			return nil, errors.New("record: snapshot page count out of range")
		}
		// Only complete pages seed the zone cache and the base: the
		// in-memory cache is defined over exact ZonePageRows-aligned pages,
		// and a trailing partial page would misalign everything appended
		// after recovery — and is rewritten by the next snapshot anyway.
		complete := total / relation.ZonePageRows
		stored := make([]storedPage, complete)
		dir := make([]pageDirEntry, nPages)
		for p := range dir {
			entry := rd.buf
			pr := int(rd.uvarint())
			bl := int(rd.uvarint())
			if rd.err != nil {
				return nil, rd.err
			}
			want := relation.ZonePageRows
			if p == nPages-1 {
				want = total - p*relation.ZonePageRows
			}
			if pr != want {
				return nil, fmt.Errorf("record: snapshot %s page %d: %d rows, want %d", name, p, pr, want)
			}
			if bl < 0 || bl > len(rd.buf) {
				return nil, errors.New("record: snapshot page length out of range")
			}
			z := relation.PageZone{Rows: pr, Cols: make([]relation.ColZone, width)}
			z.MinBorn = rd.varint()
			z.MaxBorn = rd.varint()
			if maxDead := rd.varint(); maxDead != 0 {
				return nil, fmt.Errorf("record: snapshot %s page %d: max dead epoch %d, want 0", name, p, maxDead)
			}
			for c := 0; c < width; c++ {
				cz := &z.Cols[c]
				nc := int(rd.uvarint())
				if rd.err == nil && (nc < 0 || nc > pr) {
					return nil, fmt.Errorf("record: snapshot %s page %d: NULL count out of range", name, p)
				}
				cz.NullCount = nc
				rd.plainValueInto(&cz.Min)
				rd.plainValueInto(&cz.Max)
			}
			if rd.err != nil {
				return nil, rd.err
			}
			dir[p] = pageDirEntry{rows: pr, blobLen: bl, zone: z}
			if p < complete {
				stored[p].dir = entry[:len(entry)-len(rd.buf)]
			}
		}
		rows := make([]relation.Row, 0, min(total, 1<<16))
		born := make([]int64, 0, min(total, 1<<16))
		for p := range dir {
			blob := rd.bytes(dir[p].blobLen)
			if rd.err != nil {
				return nil, rd.err
			}
			var err error
			rows, born, err = decodeColumnarPage(blob, schema, &dir[p], name, p, rows, born)
			if err != nil {
				return nil, err
			}
			if p < complete {
				stored[p].blob = blob
			}
		}
		batches[ti], borns[ti] = rows, born
		zones := make([]relation.PageZone, complete)
		for p := 0; p < complete; p++ {
			zones[p] = dir[p].zone
		}
		zoneSets[ti], base.pages[ti] = zones, stored
	}
	if len(rd.buf) != 0 {
		return nil, errors.New("record: trailing bytes after snapshot tables")
	}
	for i, tbl := range tbls {
		if err := tbl.LoadVersions(batches[i], borns[i]); err != nil {
			return nil, err
		}
		if err := tbl.InstallZones(zoneSets[i]); err != nil {
			return nil, err
		}
	}
	return base, nil
}

// decodeColumnarPage decodes one page blob, validates every cell against the
// schema, verifies the directory zone against a recomputed one, and appends
// the page's versions to the accumulator slices, which hold the table's
// earlier pages: a page's first born must not fall below their last.
func decodeColumnarPage(stored []byte, schema *relation.Schema, de *pageDirEntry, table string, page int, rows []relation.Row, born []int64) ([]relation.Row, []int64, error) {
	fail := func(err error) ([]relation.Row, []int64, error) {
		return rows, born, fmt.Errorf("record: snapshot %s page %d: %w", table, page, err)
	}
	payload, err := unframePage(stored)
	if err != nil {
		return fail(err)
	}
	n := de.rows // validated against the table header by the caller
	width := schema.Len()
	rd := &snapReader{buf: payload}
	pb := make([]int64, n)
	for j := range pb {
		pb[j] = rd.varint()
	}
	for j := range n {
		if dead := rd.varint(); dead != 0 {
			return fail(fmt.Errorf("row %d: dead epoch %d, want 0", j, dead))
		}
	}
	if rd.err != nil {
		return fail(rd.err)
	}
	acc := newPageZoneAcc(width)
	prev := int64(0)
	if len(born) > 0 {
		prev = born[len(born)-1]
	}
	for j, b := range pb {
		if b < prev {
			return fail(fmt.Errorf("row %d: born epoch %d below its predecessor's %d", j, b, prev))
		}
		prev = b
		acc.addVersion(b)
	}
	cells := make([]relation.Value, n*width)
	bitmapLen := (n + 7) / 8
	for c := 0; c < width; c++ {
		bm := rd.bytes(bitmapLen)
		tagb := rd.bytes(1)
		if rd.err != nil {
			return fail(rd.err)
		}
		isNull := func(j int) bool { return bm[j>>3]&(1<<(j&7)) != 0 }
		switch tagb[0] {
		case 'i':
			for j := 0; j < n; j++ {
				if !isNull(j) {
					cells[j*width+c] = relation.Int(rd.varint())
				}
			}
		case 's':
			nd := int(rd.uvarint())
			if rd.err != nil || nd < 0 || nd > len(rd.buf) {
				return fail(errors.New("page dictionary out of range"))
			}
			pdict := make([]string, nd)
			for k := range pdict {
				pdict[k] = string(rd.bytes(int(rd.uvarint())))
			}
			for j := 0; j < n && rd.err == nil; j++ {
				if isNull(j) {
					continue
				}
				idx := rd.uvarint()
				if rd.err != nil {
					break
				}
				if idx >= uint64(nd) {
					return fail(errors.New("page dictionary index out of range"))
				}
				cells[j*width+c] = relation.Text(pdict[idx])
			}
		case 'f':
			for j := 0; j < n; j++ {
				if isNull(j) {
					continue
				}
				b := rd.bytes(8)
				if rd.err != nil {
					break
				}
				cells[j*width+c] = relation.Float(math.Float64frombits(binary.LittleEndian.Uint64(b)))
			}
		case 'B':
			nonNull := 0
			for j := 0; j < n; j++ {
				if !isNull(j) {
					nonNull++
				}
			}
			vb := rd.bytes((nonNull + 7) / 8)
			if rd.err != nil {
				return fail(rd.err)
			}
			k := 0
			for j := 0; j < n; j++ {
				if isNull(j) {
					continue
				}
				cells[j*width+c] = relation.Bool(vb[k>>3]&(1<<(k&7)) != 0)
				k++
			}
		case 't':
			for j := 0; j < n; j++ {
				if !isNull(j) {
					cells[j*width+c] = relation.Time(time.Unix(0, rd.varint()).UTC())
				}
			}
		case 'x':
			for j := 0; j < n && rd.err == nil; j++ {
				if isNull(j) {
					continue
				}
				b := rd.bytes(int(rd.uvarint()))
				if rd.err != nil {
					break
				}
				cells[j*width+c] = relation.Blob(append([]byte(nil), b...))
			}
		case 'v':
			for j := 0; j < n; j++ {
				if !isNull(j) {
					rd.plainValueInto(&cells[j*width+c])
				}
			}
		default:
			return fail(fmt.Errorf("unknown column encoding %q", tagb[0]))
		}
		if rd.err != nil {
			return fail(rd.err)
		}
		for j := 0; j < n; j++ {
			v := &cells[j*width+c]
			// A NULL-bitmap bit leaves the cell zero (NULL), so NOT NULL
			// violations and mis-typed cells both funnel through here.
			if err := checkSnapCell(schema, c, v, rd, table, j); err != nil {
				return fail(err)
			}
			acc.addCell(c, v)
		}
	}
	if len(rd.buf) != 0 {
		return fail(errors.New("trailing bytes in page"))
	}
	if !zoneEqual(&de.zone, &acc.z) {
		return fail(errors.New("zone map disagrees with page contents"))
	}
	for j := 0; j < n; j++ {
		rows = append(rows, relation.Row(cells[j*width:(j+1)*width:(j+1)*width]))
		born = append(born, pb[j])
	}
	return rows, born, nil
}

// unframePage strips the compression frame off a stored page blob.
func unframePage(stored []byte) ([]byte, error) {
	if len(stored) == 0 {
		return nil, errors.New("empty page blob")
	}
	comp := stored[0]
	rawLen, nn := binary.Uvarint(stored[1:])
	if nn <= 0 {
		return nil, errors.New("bad page payload length")
	}
	body := stored[1+nn:]
	switch comp {
	case 0:
		if rawLen != uint64(len(body)) {
			return nil, errors.New("page payload length mismatch")
		}
		return body, nil
	case 1:
		// DEFLATE expands at most ~1032:1, so a claimed payload length far
		// beyond that bound is corrupt; rejecting it here keeps a tiny
		// crafted blob from demanding an enormous allocation.
		if rawLen > uint64(len(body))*1040+4096 {
			return nil, errors.New("page payload length out of range")
		}
		fr := flate.NewReader(bytes.NewReader(body))
		payload := make([]byte, int(rawLen))
		if _, err := io.ReadFull(fr, payload); err != nil {
			return nil, fmt.Errorf("page inflate: %w", err)
		}
		var one [1]byte
		if k, _ := fr.Read(one[:]); k != 0 {
			return nil, errors.New("page inflate: trailing data")
		}
		return payload, nil
	default:
		return nil, fmt.Errorf("unknown page compression %d", comp)
	}
}
