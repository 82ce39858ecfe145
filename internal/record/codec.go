// WAL line codec: one hand-written encoder and one single-pass decoder for
// the five record kinds. See the package doc for the contract.

package record

import (
	"encoding/base64"
	"errors"
	"fmt"
	"math/bits"
	"strconv"
	"strings"
	"time"
	"unicode/utf16"
	"unicode/utf8"

	"flordb/internal/relation"
)

// Encode renders a record as one WAL line (no trailing newline).
func Encode(rec any) ([]byte, error) {
	return AppendRecord(nil, rec)
}

// AppendRecord appends rec's WAL line (no trailing newline) to dst and
// returns the extended buffer. rec must be a *LogRecord, *LoopRecord,
// *ArgRecord, *CkptRecord or *CommitRecord. The bytes are
// exactly those json.Marshal writes for the record; on error dst is
// returned unextended.
func AppendRecord(dst []byte, rec any) ([]byte, error) {
	n0 := len(dst)
	var err error
	switch r := rec.(type) {
	case *LogRecord:
		dst = relation.AppendJSONString(append(dst, `{"kind":`...), string(r.Kind))
		dst = relation.AppendJSONString(append(dst, `,"projid":`...), r.ProjID)
		dst = strconv.AppendInt(append(dst, `,"tstamp":`...), r.Tstamp, 10)
		dst = relation.AppendJSONString(append(dst, `,"filename":`...), r.Filename)
		dst = strconv.AppendInt(append(dst, `,"ctx_id":`...), r.CtxID, 10)
		dst = relation.AppendJSONString(append(dst, `,"value_name":`...), r.ValueName)
		dst = relation.AppendJSONString(append(dst, `,"value":`...), r.Value)
		dst = strconv.AppendInt(append(dst, `,"value_type":`...), int64(r.ValueType), 10)
		dst, err = appendTime(append(dst, `,"wall":`...), r.Wall)
		return finish(dst, n0, err)
	case *LoopRecord:
		dst = relation.AppendJSONString(append(dst, `{"kind":`...), string(r.Kind))
		dst = relation.AppendJSONString(append(dst, `,"projid":`...), r.ProjID)
		dst = strconv.AppendInt(append(dst, `,"tstamp":`...), r.Tstamp, 10)
		dst = relation.AppendJSONString(append(dst, `,"filename":`...), r.Filename)
		dst = strconv.AppendInt(append(dst, `,"ctx_id":`...), r.CtxID, 10)
		dst = strconv.AppendInt(append(dst, `,"parent_ctx_id":`...), r.ParentCtxID, 10)
		dst = relation.AppendJSONString(append(dst, `,"loop_name":`...), r.LoopName)
		dst = strconv.AppendInt(append(dst, `,"loop_iteration":`...), r.LoopIter, 10)
		dst = relation.AppendJSONString(append(dst, `,"iteration_value":`...), r.IterValue)
		dst, err = appendTime(append(dst, `,"wall":`...), r.Wall)
		return finish(dst, n0, err)
	case *ArgRecord:
		dst = relation.AppendJSONString(append(dst, `{"kind":`...), string(r.Kind))
		dst = relation.AppendJSONString(append(dst, `,"projid":`...), r.ProjID)
		dst = strconv.AppendInt(append(dst, `,"tstamp":`...), r.Tstamp, 10)
		dst = relation.AppendJSONString(append(dst, `,"filename":`...), r.Filename)
		dst = relation.AppendJSONString(append(dst, `,"name":`...), r.Name)
		dst = relation.AppendJSONString(append(dst, `,"value":`...), r.Value)
		return finish(dst, n0, nil)
	case *CkptRecord:
		dst = relation.AppendJSONString(append(dst, `{"kind":`...), string(r.Kind))
		dst = relation.AppendJSONString(append(dst, `,"projid":`...), r.ProjID)
		dst = strconv.AppendInt(append(dst, `,"tstamp":`...), r.Tstamp, 10)
		dst = relation.AppendJSONString(append(dst, `,"filename":`...), r.Filename)
		dst = strconv.AppendInt(append(dst, `,"ctx_id":`...), r.CtxID, 10)
		dst = relation.AppendJSONString(append(dst, `,"name":`...), r.Name)
		if r.BlobKey != "" {
			dst = relation.AppendJSONString(append(dst, `,"blob_key":`...), r.BlobKey)
		}
		if len(r.Data) > 0 {
			dst = append(base64.StdEncoding.AppendEncode(append(dst, `,"data":"`...), r.Data), '"')
		}
		return finish(dst, n0, nil)
	case *CommitRecord:
		dst = relation.AppendJSONString(append(dst, `{"kind":`...), string(r.Kind))
		dst = relation.AppendJSONString(append(dst, `,"projid":`...), r.ProjID)
		dst = strconv.AppendInt(append(dst, `,"tstamp":`...), r.Tstamp, 10)
		dst = relation.AppendJSONString(append(dst, `,"vid":`...), r.VID)
		dst, err = appendTime(append(dst, `,"wall":`...), r.Wall)
		return finish(dst, n0, err)
	}
	return dst, fmt.Errorf("record: encode: unsupported value %T", rec)
}

func finish(dst []byte, n0 int, err error) ([]byte, error) {
	if err != nil {
		return dst[:n0], fmt.Errorf("record: encode: %w", err)
	}
	return append(dst, '}'), nil
}

// appendTime appends t as a quoted RFC 3339 timestamp with nanoseconds,
// failing exactly where time.Time.MarshalJSON does: a year outside
// [0,9999] or a zone offset of 24 hours or more.
func appendTime(dst []byte, t time.Time) ([]byte, error) {
	n0 := len(dst) + 1
	dst = t.AppendFormat(append(dst, '"'), time.RFC3339Nano)
	if dst[n0+len("2006")] != '-' {
		return dst, errors.New("Time.MarshalJSON: year outside of range [0,9999]")
	}
	if dst[len(dst)-1] != 'Z' {
		c := dst[len(dst)-len("Z07:00")]
		hh := dst[len(dst)-len("07:00"):]
		if ('0' <= c && c <= '9') || 10*(hh[0]-'0')+(hh[1]-'0') >= 24 {
			return dst, errors.New("Time.MarshalJSON: timezone hour outside of range [0,23]")
		}
	}
	return append(dst, '"'), nil
}

// Sanitize rewrites rec's string fields to what its WAL line carries for
// them: each byte that is not part of valid UTF-8 replaced by U+FFFD, as
// the encoder writes it. A row applied from rec in memory then equals the
// row recovery and replicas rebuild from the line.
func Sanitize(rec any) {
	switch r := rec.(type) {
	case *LogRecord:
		validUTF8(&r.ProjID, &r.Filename, &r.ValueName, &r.Value)
	case *LoopRecord:
		validUTF8(&r.ProjID, &r.Filename, &r.LoopName, &r.IterValue)
	case *ArgRecord:
		validUTF8(&r.ProjID, &r.Filename, &r.Name, &r.Value)
	case *CkptRecord:
		validUTF8(&r.ProjID, &r.Filename, &r.Name, &r.BlobKey)
	case *CommitRecord:
		validUTF8(&r.ProjID, &r.VID)
	}
}

func validUTF8(fields ...*string) {
	for _, f := range fields {
		s := *f
		if utf8.ValidString(s) {
			continue
		}
		var b strings.Builder
		b.Grow(len(s) + 2*utf8.UTFMax)
		for i := 0; i < len(s); {
			c, size := utf8.DecodeRuneInString(s[i:])
			if c == utf8.RuneError && size == 1 {
				b.WriteRune(utf8.RuneError)
			} else {
				b.WriteString(s[i : i+size])
			}
			i += size
		}
		*f = b.String()
	}
}

// field is one JSON key of the record structs. A key has the same Go type
// in every record kind that has it.
type field uint8

const (
	fKind field = iota
	fProjID
	fTstamp
	fFilename
	fCtxID
	fValueName
	fValue
	fValueType
	fWall
	fParentCtxID
	fLoopName
	fLoopIter
	fIterValue
	fName
	fBlobKey
	fVID
	fData
	numFields
)

// fieldKeys names each field's key, for messages and tests.
var fieldKeys = [numFields]string{
	"kind", "projid", "tstamp", "filename", "ctx_id", "value_name", "value",
	"value_type", "wall", "parent_ctx_id", "loop_name", "loop_iteration",
	"iteration_value", "name", "blob_key", "vid", "data",
}

// lookupField matches a key byte for byte; encoding/json would also match
// it case-insensitively, which no writer relies on.
func lookupField[T string | []byte](key T) (field, bool) {
	switch string(key) {
	case "kind":
		return fKind, true
	case "projid":
		return fProjID, true
	case "tstamp":
		return fTstamp, true
	case "filename":
		return fFilename, true
	case "ctx_id":
		return fCtxID, true
	case "value_name":
		return fValueName, true
	case "value":
		return fValue, true
	case "value_type":
		return fValueType, true
	case "wall":
		return fWall, true
	case "parent_ctx_id":
		return fParentCtxID, true
	case "loop_name":
		return fLoopName, true
	case "loop_iteration":
		return fLoopIter, true
	case "iteration_value":
		return fIterValue, true
	case "name":
		return fName, true
	case "blob_key":
		return fBlobKey, true
	case "vid":
		return fVID, true
	case "data":
		return fData, true
	}
	return 0, false
}

func fields(fs ...field) (m uint32) {
	for _, f := range fs {
		m |= 1 << f
	}
	return m
}

var (
	intFields = fields(fTstamp, fCtxID, fValueType, fParentCtxID, fLoopIter)

	logFields    = fields(fKind, fProjID, fTstamp, fFilename, fCtxID, fValueName, fValue, fValueType, fWall)
	loopFields   = fields(fKind, fProjID, fTstamp, fFilename, fCtxID, fParentCtxID, fLoopName, fLoopIter, fIterValue, fWall)
	argFields    = fields(fKind, fProjID, fTstamp, fFilename, fName, fValue)
	ckptFields   = fields(fKind, fProjID, fTstamp, fFilename, fCtxID, fName, fBlobKey, fData)
	commitFields = fields(fKind, fProjID, fTstamp, fVID, fWall)
)

// maxDepth is encoding/json's nesting limit: a line that nests objects and
// arrays deeper is rejected, as json rejects it.
const maxDepth = 10000

// Decode parses one WAL line into the record its kind names.
//
// It is one pass over the line: values are collected by key, then the
// record of the named kind is built from them. A value of the wrong type
// under a key of that kind's record is an error; keys the record does not
// have are skipped whatever they hold. A null leaves a field as it was,
// and of duplicate keys the last non-null value wins.
func Decode(line []byte) (any, error) {
	d := lineDecoder{buf: line}
	if err := d.object(); err != nil {
		return nil, err
	}
	return d.build()
}

// lineDecoder holds the values a line assigns, by field, until its kind is
// known.
type lineDecoder struct {
	buf []byte
	pos int

	str  [numFields][]byte // raw contents (between the quotes) of string values
	num  [numFields]int64
	wall time.Time
	data []byte
	esc  uint32 // string fields whose raw contents need unquoting
	bad  uint32 // fields given a value of the wrong type
}

func (d *lineDecoder) syntax(msg string) error {
	return fmt.Errorf("record: decode: %s at offset %d", msg, d.pos)
}

// next skips whitespace and returns the next byte without consuming it, or
// 0 at the end of the line.
func (d *lineDecoder) next() byte {
	if d.pos < len(d.buf) && d.buf[d.pos] > ' ' {
		return d.buf[d.pos]
	}
	for ; d.pos < len(d.buf); d.pos++ {
		switch c := d.buf[d.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// object parses the line: one object, surrounded by whitespace only.
func (d *lineDecoder) object() error {
	if d.next() != '{' {
		return d.syntax("line is not an object")
	}
	err := d.container(1, func(key []byte, flags uint8) error {
		if f, ok := keyField(key, flags); ok {
			return d.value(f)
		}
		return d.skip(1)
	})
	if err != nil {
		return err
	}
	if d.next() != 0 || d.pos != len(d.buf) {
		return d.syntax("data after the object")
	}
	return nil
}

// container parses the object or array whose bracket is at pos, the depth'th
// open container. member parses each member's value, given its key (none in
// an array).
func (d *lineDecoder) container(depth int, member func(key []byte, flags uint8) error) error {
	if depth > maxDepth {
		return d.syntax("nesting too deep")
	}
	end := d.buf[d.pos] + 2 // '{' + 2 is '}', '[' + 2 is ']'
	d.pos++
	if d.next() == end {
		d.pos++
		return nil
	}
	for {
		var key []byte
		var flags uint8
		if end == '}' {
			if d.next() != '"' {
				return d.syntax("expected a key")
			}
			var err error
			if key, flags, err = d.quoted(); err != nil {
				return err
			}
			if d.next() != ':' {
				return d.syntax("expected ':'")
			}
			d.pos++
		}
		d.next()
		if err := member(key, flags); err != nil {
			return err
		}
		switch d.next() {
		case ',':
			d.pos++
		case end:
			d.pos++
			return nil
		default:
			return d.syntax("expected ',' or a closing bracket")
		}
	}
}

// keyField names the field a key matches. Raw non-ASCII bytes cannot be
// part of one; an escaped key is unquoted first.
func keyField(key []byte, flags uint8) (field, bool) {
	switch {
	case flags&strNonASCII != 0:
		return 0, false
	case flags&strEscaped != 0:
		return lookupField(unquote(key))
	}
	return lookupField(key)
}

// value parses the value of a known key into its field, or marks the field
// bad when the value's type does not fit it.
func (d *lineDecoder) value(f field) error {
	if d.pos == len(d.buf) {
		return d.syntax("unexpected end of line")
	}
	if f == fData {
		return d.bytes()
	}
	bit := uint32(1) << f
	switch c := d.buf[d.pos]; {
	case c == '"':
		start := d.pos
		s, flags, err := d.quoted()
		if err != nil {
			return err
		}
		switch {
		case f == fWall:
			// json hands time.Time the quoted bytes as they are.
			var t time.Time
			if t.UnmarshalJSON(d.buf[start:d.pos]) != nil {
				d.bad |= bit
			} else {
				d.wall = t
			}
		case bit&intFields != 0:
			d.bad |= bit
		default:
			d.str[f] = s
			d.esc &^= bit
			if flags&strEscaped != 0 || (flags&strNonASCII != 0 && !utf8.Valid(s)) {
				d.esc |= bit
			}
		}
		return nil
	case c == '-' || ('0' <= c && c <= '9'):
		n, isInt, err := d.number()
		if err != nil {
			return err
		}
		if isInt && bit&intFields != 0 {
			if v, ok := parseInt(n); ok {
				d.num[f] = v
				return nil
			}
		}
		d.bad |= bit
		return nil
	case c == 'n':
		return d.literal("null")
	default:
		d.bad |= bit
		return d.skip(1)
	}
}

// bytes parses the value of data as json fills a []byte: a base64 string,
// null, which clears it, or an array of integers 0..255 written into the
// slice already there — its backing array reused, a null element leaving
// its slot as that array held it.
func (d *lineDecoder) bytes() error {
	switch d.buf[d.pos] {
	case '"':
		s, flags, err := d.quoted()
		if err != nil {
			return err
		}
		if flags&strEscaped != 0 {
			s = []byte(unquote(s))
		}
		b := make([]byte, base64.StdEncoding.DecodedLen(len(s)))
		if n, err := base64.StdEncoding.Decode(b, s); err == nil {
			d.data = b[:n]
		} else {
			d.bad |= 1 << fData
		}
		return nil
	case 'n':
		d.data = nil
		return d.literal("null")
	case '[':
		out, i := d.data, 0
		err := d.container(2, func([]byte, uint8) error {
			if i < cap(out) {
				out = out[:i+1]
			} else {
				out = append(out, 0)
			}
			i++
			var c byte
			if d.pos < len(d.buf) {
				c = d.buf[d.pos]
			}
			if c == '-' || ('0' <= c && c <= '9') {
				n, isInt, err := d.number()
				if err != nil {
					return err
				}
				if v, ok := parseInt(n); isInt && ok && c != '-' && v <= 255 {
					out[i-1] = byte(v)
				} else {
					d.bad |= 1 << fData
				}
				return nil
			}
			if c != 'n' {
				d.bad |= 1 << fData
			}
			return d.skip(2)
		})
		if out = out[:i]; i == 0 {
			out = []byte{}
		}
		d.data = out
		return err
	default:
		d.bad |= 1 << fData
		return d.skip(1)
	}
}

// skip parses and discards one value inside depth open containers.
func (d *lineDecoder) skip(depth int) error {
	if d.pos == len(d.buf) {
		return d.syntax("unexpected end of line")
	}
	switch c := d.buf[d.pos]; {
	case c == '"':
		_, _, err := d.quoted()
		return err
	case c == '-' || ('0' <= c && c <= '9'):
		_, _, err := d.number()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '{' || c == '[':
		return d.container(depth+1, func([]byte, uint8) error { return d.skip(depth + 1) })
	default:
		return d.syntax(fmt.Sprintf("invalid character %q looking for a value", c))
	}
}

func (d *lineDecoder) literal(lit string) error {
	if len(d.buf)-d.pos < len(lit) || string(d.buf[d.pos:d.pos+len(lit)]) != lit {
		return d.syntax("invalid literal")
	}
	d.pos += len(lit)
	return nil
}

// Flags of a string's raw contents.
const (
	strEscaped  uint8 = 1 << iota // holds a backslash escape
	strNonASCII                   // holds a byte >= 0x80
)

// plainByte marks the bytes a string holds as they are: printable ASCII
// other than the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\'
	}
	return t
}()

// quoted parses the string at pos and returns its raw contents, checked to
// hold no control bytes and only the escapes JSON defines.
func (d *lineDecoder) quoted() ([]byte, uint8, error) {
	buf := d.buf
	start := d.pos + 1 // past the opening quote
	var flags uint8
	for i := start; i < len(buf); {
		c := buf[i]
		switch {
		case plainByte[c]:
			i++
		case c == '"':
			d.pos = i + 1
			return buf[start:i], flags, nil
		case c == '\\':
			flags |= strEscaped
			if i+1 == len(buf) {
				i++
				break
			}
			switch buf[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if hex4(buf[i+2:]) < 0 {
					d.pos = i
					return nil, 0, d.syntax(`invalid \u escape`)
				}
				i += 6
			default:
				d.pos = i
				return nil, 0, d.syntax("invalid escape")
			}
		case c < 0x20:
			d.pos = i
			return nil, 0, d.syntax("control character in string")
		default:
			flags |= strNonASCII
			i++
		}
	}
	d.pos = len(buf)
	return nil, 0, d.syntax("unterminated string")
}

// number parses the number at pos and reports whether it is written as an
// integer: no fraction and no exponent.
func (d *lineDecoder) number() (n []byte, isInt bool, err error) {
	start := d.pos
	if d.buf[d.pos] == '-' {
		d.pos++
	}
	switch {
	case d.pos < len(d.buf) && d.buf[d.pos] == '0':
		d.pos++
	case !d.digits():
		return nil, false, d.syntax("invalid number")
	}
	isInt = true
	if d.pos < len(d.buf) && d.buf[d.pos] == '.' {
		isInt = false
		d.pos++
		if !d.digits() {
			return nil, false, d.syntax("invalid number")
		}
	}
	if d.pos < len(d.buf) && (d.buf[d.pos] == 'e' || d.buf[d.pos] == 'E') {
		isInt = false
		d.pos++
		if d.pos < len(d.buf) && (d.buf[d.pos] == '+' || d.buf[d.pos] == '-') {
			d.pos++
		}
		if !d.digits() {
			return nil, false, d.syntax("invalid number")
		}
	}
	return d.buf[start:d.pos], isInt, nil
}

// digits consumes a run of decimal digits and reports whether there was one.
func (d *lineDecoder) digits() bool {
	start := d.pos
	for d.pos < len(d.buf) && '0' <= d.buf[d.pos] && d.buf[d.pos] <= '9' {
		d.pos++
	}
	return d.pos > start
}

// parseInt converts the digits of a JSON integer to an int64, reporting
// false when it is out of range.
func parseInt(n []byte) (int64, bool) {
	neg := n[0] == '-'
	if neg {
		n = n[1:]
	}
	var u uint64
	for _, c := range n {
		if u > (1<<63)/10 {
			return 0, false
		}
		if u = u*10 + uint64(c-'0'); u > 1<<63 {
			return 0, false
		}
	}
	if neg {
		return -int64(u), true
	}
	return int64(u), u < 1<<63
}

// hex4 decodes four hex digits, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// unquote decodes the checked raw contents of a string as json does:
// escapes resolved, a surrogate pair joined, and a lone surrogate and each
// byte that is not part of valid UTF-8 replaced by U+FFFD.
func unquote(s []byte) string {
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '\\':
			e := s[i+1]
			i += 2
			switch e {
			case 'b':
				b.WriteByte('\b')
			case 'f':
				b.WriteByte('\f')
			case 'n':
				b.WriteByte('\n')
			case 'r':
				b.WriteByte('\r')
			case 't':
				b.WriteByte('\t')
			case 'u':
				r := hex4(s[i:])
				i += 4
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if i+1 < len(s) && s[i] == '\\' && s[i+1] == 'u' {
						r2 = hex4(s[i+2:])
					}
					if r = utf16.DecodeRune(r, r2); r != utf8.RuneError {
						i += 6
					}
				}
				b.WriteRune(r)
			default: // " \ /
				b.WriteByte(e)
			}
		case c < utf8.RuneSelf:
			b.WriteByte(c)
			i++
		default:
			r, size := utf8.DecodeRune(s[i:])
			b.WriteRune(r)
			i += size
		}
	}
	return b.String()
}

// text returns string field f, unquoted when its raw contents need it.
func (d *lineDecoder) text(f field) string {
	if d.esc&(1<<f) != 0 {
		return unquote(d.str[f])
	}
	return string(d.str[f])
}

// build makes the record the line's kind names from the collected values.
func (d *lineDecoder) build() (any, error) {
	k := d.str[fKind]
	if d.esc&(1<<fKind) != 0 {
		k = []byte(unquote(k))
	}
	var kind Kind
	var mask uint32
	switch Kind(k) {
	case KindLog:
		kind, mask = KindLog, logFields
	case KindLoop:
		kind, mask = KindLoop, loopFields
	case KindArg:
		kind, mask = KindArg, argFields
	case KindCkpt:
		kind, mask = KindCkpt, ckptFields
	case KindCommit:
		kind, mask = KindCommit, commitFields
	default:
		return nil, fmt.Errorf("record: unknown kind %q", k)
	}
	if bad := d.bad & mask; bad != 0 {
		return nil, fmt.Errorf("record: %s record: %q holds a value of the wrong type", kind, fieldKeys[bits.TrailingZeros32(bad)])
	}
	switch kind {
	case KindLog:
		return &LogRecord{
			Kind: KindLog, ProjID: d.text(fProjID), Tstamp: d.num[fTstamp],
			Filename: d.text(fFilename), CtxID: d.num[fCtxID],
			ValueName: d.text(fValueName), Value: d.text(fValue),
			ValueType: ValueType(d.num[fValueType]), Wall: d.wall,
		}, nil
	case KindLoop:
		return &LoopRecord{
			Kind: KindLoop, ProjID: d.text(fProjID), Tstamp: d.num[fTstamp],
			Filename: d.text(fFilename), CtxID: d.num[fCtxID],
			ParentCtxID: d.num[fParentCtxID], LoopName: d.text(fLoopName),
			LoopIter: d.num[fLoopIter], IterValue: d.text(fIterValue), Wall: d.wall,
		}, nil
	case KindArg:
		return &ArgRecord{
			Kind: KindArg, ProjID: d.text(fProjID), Tstamp: d.num[fTstamp],
			Filename: d.text(fFilename), Name: d.text(fName), Value: d.text(fValue),
		}, nil
	case KindCkpt:
		return &CkptRecord{
			Kind: KindCkpt, ProjID: d.text(fProjID), Tstamp: d.num[fTstamp],
			Filename: d.text(fFilename), CtxID: d.num[fCtxID],
			Name: d.text(fName), BlobKey: d.text(fBlobKey), Data: d.data,
		}, nil
	default:
		return &CommitRecord{
			Kind: KindCommit, ProjID: d.text(fProjID), Tstamp: d.num[fTstamp],
			VID: d.text(fVID), Wall: d.wall,
		}, nil
	}
}
