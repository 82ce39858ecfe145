// Package relation implements the relational kernel underlying FlorDB's
// metadata store: a typed value model, heap-resident tables with hash
// indexes and per-page zone maps, batch operators, and the row functions
// over lazy sequences (filter, project, join, sort, limit, aggregate,
// distinct).
//
// The kernel is deliberately small but complete enough to host the Figure-1
// schema of the FlorDB paper (logs, loops, ts2vid, obj_store base tables and
// the git / build_deps virtual tables) and to answer every query the paper
// issues against them.
package relation

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
)

// Type enumerates the column types supported by the kernel. They correspond
// to the types appearing in the paper's Figure-1 data model: text, integer,
// datetime, bool, float (for logged metrics), and blob (obj_store contents).
type Type int

const (
	TNull Type = iota
	TText
	TInt
	TFloat
	TBool
	TTime
	TBlob
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TNull:
		return "NULL"
	case TText:
		return "TEXT"
	case TInt:
		return "INTEGER"
	case TFloat:
		return "FLOAT"
	case TBool:
		return "BOOL"
	case TTime:
		return "DATETIME"
	case TBlob:
		return "BLOB"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Value is a dynamically typed relational value. The zero Value is NULL.
// All fixed-width payloads (integer, float bits, bool, UnixNano datetime)
// share one word, keeping the struct at 56 bytes — Values are copied on
// every scan, join, and recovery load, so width is a kernel-wide cost.
type Value struct {
	typ  Type
	num  uint64 // TInt/TBool: int64; TFloat: Float64bits; TTime: UTC UnixNano
	s    string // TText
	blob []byte // TBlob
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Text builds a TEXT value.
func Text(s string) Value { return Value{typ: TText, s: s} }

// Int builds an INTEGER value.
func Int(i int64) Value { return Value{typ: TInt, num: uint64(i)} }

// Float builds a FLOAT value.
func Float(f float64) Value { return Value{typ: TFloat, num: math.Float64bits(f)} }

// Bool builds a BOOL value.
func Bool(b bool) Value {
	v := Value{typ: TBool}
	if b {
		v.num = 1
	}
	return v
}

// Time builds a DATETIME value. Sub-nanosecond monotonic readings and
// location are dropped: the value is the UTC wall instant (nanosecond
// precision, years 1678–2262 — the range time.Time round-trips through
// UnixNano).
func Time(t time.Time) Value { return Value{typ: TTime, num: uint64(t.UnixNano())} }

// Blob builds a BLOB value. The slice is not copied.
func Blob(b []byte) Value { return Value{typ: TBlob, blob: b} }

// Type reports the value's type tag.
func (v Value) Type() Type { return v.typ }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.typ == TNull }

// AsText returns the TEXT payload; it panics on type mismatch.
func (v Value) AsText() string {
	if v.typ != TText {
		panic(fmt.Sprintf("relation: AsText on %s", v.typ))
	}
	return v.s
}

// AsInt returns the INTEGER payload; it panics on type mismatch.
func (v Value) AsInt() int64 {
	if v.typ != TInt {
		panic(fmt.Sprintf("relation: AsInt on %s", v.typ))
	}
	return int64(v.num)
}

// AsFloat returns the numeric payload widened to float64. Works for TInt and
// TFloat; panics otherwise.
func (v Value) AsFloat() float64 {
	switch v.typ {
	case TFloat:
		return math.Float64frombits(v.num)
	case TInt:
		return float64(int64(v.num))
	default:
		panic(fmt.Sprintf("relation: AsFloat on %s", v.typ))
	}
}

// AsBool returns the BOOL payload; it panics on type mismatch.
func (v Value) AsBool() bool {
	if v.typ != TBool {
		panic(fmt.Sprintf("relation: AsBool on %s", v.typ))
	}
	return v.num != 0
}

// AsTime returns the DATETIME payload; it panics on type mismatch.
func (v Value) AsTime() time.Time {
	if v.typ != TTime {
		panic(fmt.Sprintf("relation: AsTime on %s", v.typ))
	}
	return time.Unix(0, int64(v.num)).UTC()
}

// AsBlob returns the BLOB payload; it panics on type mismatch.
func (v Value) AsBlob() []byte {
	if v.typ != TBlob {
		panic(fmt.Sprintf("relation: AsBlob on %s", v.typ))
	}
	return v.blob
}

// IsNumeric reports whether the value is TInt or TFloat.
func (v Value) IsNumeric() bool { return v.typ == TInt || v.typ == TFloat }

// String renders the value for display (not for round-tripping).
func (v Value) String() string {
	switch v.typ {
	case TNull:
		return "NULL"
	case TText:
		return v.s
	case TInt:
		return strconv.FormatInt(int64(v.num), 10)
	case TFloat:
		return strconv.FormatFloat(math.Float64frombits(v.num), 'g', -1, 64)
	case TBool:
		if v.num != 0 {
			return "true"
		}
		return "false"
	case TTime:
		return v.AsTime().Format(time.RFC3339Nano)
	case TBlob:
		return fmt.Sprintf("x'%x'", v.blob)
	default:
		return "?"
	}
}

// JSON returns the value as a JSON-encodable Go value: nil for NULL, string
// for TEXT, int64 / float64 for numerics, bool for BOOL, RFC3339 text for
// DATETIME, and raw bytes for BLOB (encoding/json base64-encodes them). The
// HTTP API and the CLI's --format json share this mapping.
func (v Value) JSON() any {
	switch v.typ {
	case TNull:
		return nil
	case TText:
		return v.s
	case TInt:
		return int64(v.num)
	case TFloat:
		return math.Float64frombits(v.num)
	case TBool:
		return v.num != 0
	case TTime:
		return v.AsTime().Format(time.RFC3339Nano)
	case TBlob:
		return v.blob
	default:
		return v.String()
	}
}

// AppendJSON appends to dst exactly the bytes encoding/json writes for
// v.JSON(), without boxing or reflection: HTML-safe string escapes, floats
// in ES6 number form, times as RFC 3339 text, blobs in base64 (a nil blob
// as null). NaN and ±Inf fail with the *json.UnsupportedValueError
// json.Marshal returns for them, and dst comes back unextended.
func (v Value) AppendJSON(dst []byte) ([]byte, error) {
	switch v.typ {
	case TNull:
		return append(dst, "null"...), nil
	case TText:
		return AppendJSONString(dst, v.s), nil
	case TInt:
		return strconv.AppendInt(dst, int64(v.num), 10), nil
	case TFloat:
		return appendJSONFloat(dst, math.Float64frombits(v.num))
	case TBool:
		return strconv.AppendBool(dst, v.num != 0), nil
	case TTime:
		// RFC 3339 text of a UTC instant in years 1678–2262 needs no escape.
		dst = v.AsTime().AppendFormat(append(dst, '"'), time.RFC3339Nano)
		return append(dst, '"'), nil
	case TBlob:
		if v.blob == nil {
			return append(dst, "null"...), nil
		}
		dst = base64.StdEncoding.AppendEncode(append(dst, '"'), v.blob)
		return append(dst, '"'), nil
	default:
		return AppendJSONString(dst, v.String()), nil
	}
}

// appendJSONFloat writes f as encoding/json does: 'f' form, or 'e' form
// below 1e-6 and from 1e21 in magnitude with a one-digit exponent kept
// unpadded (e-7, not e-07).
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// jsonSafeASCII marks the ASCII bytes a JSON string carries verbatim:
// printable, and none of the quote, the backslash or the HTML-significant
// < > &.
var jsonSafeASCII = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	for _, b := range `"\<>&` {
		t[b] = false
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// AppendJSONString appends s as a quoted string with json.Marshal's
// escaping: short escapes for \ " \b \f \n \r \t; \u00XX for the other
// control bytes and for < > &; \u2028 and \u2029 for the two Unicode line
// separators; and \ufffd for each byte that is not part of valid UTF-8.
// The WAL record codec and Value.AppendJSON share it.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if jsonSafeASCII[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// Compare orders two values. NULL sorts before everything; numeric types
// compare numerically across TInt/TFloat; otherwise both values must share a
// type. Returns -1, 0, or +1. Cross-type non-numeric comparisons order by
// type tag so that sorting heterogeneous columns is total and deterministic.
func Compare(a, b Value) int { return comparePtr(&a, &b) }

// ComparePtr is Compare on pointer operands, skipping the two 56-byte Value
// copies per call. Vectorized predicate kernels compare a column slice
// element against a literal once per row, so the copies would dominate.
func ComparePtr(a, b *Value) int { return comparePtr(a, b) }

// comparePtr is Compare without copying the 56-byte Value operands — the
// form sort inner loops use, where the copies dominate the comparison.
func comparePtr(a, b *Value) int {
	if a.typ == TNull || b.typ == TNull {
		switch {
		case a.typ == TNull && b.typ == TNull:
			return 0
		case a.typ == TNull:
			return -1
		default:
			return 1
		}
	}
	if a.IsNumeric() && b.IsNumeric() {
		af, bf := a.AsFloat(), b.AsFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		case af == bf:
			return 0
		}
		// A NaN orders above every other number and equals itself, so the
		// order stays total: a page zone's [Min, Max] then bounds its NaN
		// cells too, which pruning and containment both rely on.
		switch aNaN, bNaN := af != af, bf != bf; {
		case aNaN == bNaN:
			return 0
		case aNaN:
			return 1
		}
		return -1
	}
	if a.typ != b.typ {
		if a.typ < b.typ {
			return -1
		}
		return 1
	}
	switch a.typ {
	case TText:
		return strings.Compare(a.s, b.s)
	case TBool:
		switch {
		case a.num < b.num:
			return -1
		case a.num > b.num:
			return 1
		default:
			return 0
		}
	case TTime:
		an, bn := int64(a.num), int64(b.num)
		switch {
		case an < bn:
			return -1
		case an > bn:
			return 1
		default:
			return 0
		}
	case TBlob:
		return strings.Compare(string(a.blob), string(b.blob))
	default:
		return 0
	}
}

// Equal reports whether two values compare equal under Compare, except that
// NULL is never equal to anything including NULL (SQL semantics). Use
// Compare for sorting and Equal for predicate evaluation.
func Equal(a, b Value) bool {
	if a.typ == TNull || b.typ == TNull {
		return false
	}
	return Compare(a, b) == 0
}

// Key returns a string usable as a hash key for grouping/joining. Two values
// with Compare(a,b)==0 share a key. NULLs get a distinct sentinel key so
// GROUP BY can place them in one group (SQL groups NULLs together).
func (v Value) Key() string {
	return string(v.AppendKey(nil))
}

// AppendKey appends the value's hash key (the same bytes Key returns) to dst
// and returns the extended slice. Hot paths — index maintenance, join and
// group-by key building — use it to assemble multi-column keys in a single
// reusable buffer instead of concatenating per-value strings.
func (v Value) AppendKey(dst []byte) []byte { return v.appendKey(dst) }

// appendKey is AppendKey on a pointer receiver, so row-indexed callers
// (ix.appendRowKey over every column of every row) skip the 56-byte copy.
func (v *Value) appendKey(dst []byte) []byte {
	switch v.typ {
	case TNull:
		return append(dst, '\x00', 'N')
	case TText:
		dst = append(dst, '\x01')
		return append(dst, v.s...)
	case TInt:
		// Ints share the numeric key space with floats so that Int(5) and
		// Float(5) group/join together, matching Compare.
		dst = append(dst, '\x02')
		return strconv.AppendFloat(dst, float64(int64(v.num)), 'g', -1, 64)
	case TFloat:
		dst = append(dst, '\x02')
		return strconv.AppendFloat(dst, math.Float64frombits(v.num), 'g', -1, 64)
	case TBool:
		dst = append(dst, '\x03')
		return strconv.AppendInt(dst, int64(v.num), 10)
	case TTime:
		dst = append(dst, '\x04')
		return strconv.AppendInt(dst, int64(v.num), 10)
	case TBlob:
		dst = append(dst, '\x05')
		return append(dst, v.blob...)
	default:
		return append(dst, '\x06')
	}
}

// Coerce attempts to convert v to target type t, returning an error when the
// conversion is lossy or undefined. NULL coerces to NULL of any type.
func Coerce(v Value, t Type) (Value, error) {
	if v.typ == TNull || v.typ == t {
		return v, nil
	}
	switch t {
	case TText:
		return Text(v.String()), nil
	case TInt:
		switch v.typ {
		case TFloat:
			f := math.Float64frombits(v.num)
			if f != math.Trunc(f) {
				return Value{}, fmt.Errorf("relation: cannot coerce %v to INTEGER without loss", f)
			}
			return Int(int64(f)), nil
		case TText:
			i, err := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64)
			if err != nil {
				return Value{}, fmt.Errorf("relation: cannot coerce %q to INTEGER", v.s)
			}
			return Int(i), nil
		case TBool:
			return Int(int64(v.num)), nil
		}
	case TFloat:
		switch v.typ {
		case TInt:
			return Float(float64(int64(v.num))), nil
		case TText:
			f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
			if err != nil {
				return Value{}, fmt.Errorf("relation: cannot coerce %q to FLOAT", v.s)
			}
			return Float(f), nil
		}
	case TBool:
		switch v.typ {
		case TInt:
			return Bool(v.num != 0), nil
		case TText:
			switch strings.ToLower(strings.TrimSpace(v.s)) {
			case "true", "t", "1":
				return Bool(true), nil
			case "false", "f", "0":
				return Bool(false), nil
			}
			return Value{}, fmt.Errorf("relation: cannot coerce %q to BOOL", v.s)
		}
	case TTime:
		if v.typ == TText {
			for _, layout := range []string{time.RFC3339Nano, time.RFC3339, "2006-01-02 15:04:05", "2006-01-02"} {
				if tt, err := time.Parse(layout, strings.TrimSpace(v.s)); err == nil {
					return Time(tt), nil
				}
			}
			return Value{}, fmt.Errorf("relation: cannot coerce %q to DATETIME", v.s)
		}
	case TBlob:
		if v.typ == TText {
			return Blob([]byte(v.s)), nil
		}
	}
	return Value{}, fmt.Errorf("relation: cannot coerce %s to %s", v.typ, t)
}
