package relation

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"
	"time"
)

// jsonCase builds the Value a FuzzAppendJSON input names: kind picks the
// type, and the other arguments are its payload.
func jsonCase(kind uint8, s string, n int64, f float64, b []byte) Value {
	switch kind % 8 {
	case 1:
		return Text(s)
	case 2:
		return Int(n)
	case 3:
		return Float(f)
	case 4:
		return Bool(n&1 == 1)
	case 5:
		return Time(time.Unix(0, n))
	case 6:
		return Blob(b)
	case 7:
		return Blob(nil)
	default:
		return Null()
	}
}

// FuzzAppendJSON holds AppendJSON to json.Marshal(v.JSON()): the same bytes,
// or the same error with the buffer left as it was.
func FuzzAppendJSON(f *testing.F) {
	for _, s := range []string{"", "plain", "<>&", "\x00\x01\x1f\b\f\n\r\t\"\\/\x7f", "\xff\xfe a\xc3", "a\u2028b\u2029c", "ünïcødé 日本"} {
		f.Add(uint8(1), s, int64(0), 0.0, []byte(nil))
	}
	for _, n := range []int64{0, -1, math.MaxInt64, math.MinInt64, 1_700_000_000_123_456_789, -6_000_000_000_000_000_000} {
		f.Add(uint8(2), "", n, 0.0, []byte(nil))
		f.Add(uint8(5), "", n, 0.0, []byte(nil))
	}
	for _, x := range []float64{0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 1e21, -1e21, 1e20, 123456789.125, 5e-324, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add(uint8(3), "", int64(0), x, []byte(nil))
	}
	f.Add(uint8(4), "", int64(1), 0.0, []byte(nil))
	f.Add(uint8(6), "", int64(0), 0.0, []byte{})
	f.Add(uint8(6), "", int64(0), 0.0, []byte("\x00\xff blob"))
	f.Add(uint8(7), "", int64(0), 0.0, []byte(nil))
	f.Add(uint8(0), "", int64(0), 0.0, []byte(nil))
	f.Fuzz(func(t *testing.T, kind uint8, s string, n int64, x float64, b []byte) {
		v := jsonCase(kind, s, n, x, b)
		want, werr := json.Marshal(v.JSON())
		got, gerr := v.AppendJSON([]byte("prefix"))
		if fmt.Sprintf("%T %v", gerr, gerr) != fmt.Sprintf("%T %v", werr, werr) {
			t.Fatalf("%s %v: error %T %v, json.Marshal %T %v", v.Type(), v, gerr, gerr, werr, werr)
		}
		if werr != nil {
			want = nil
		}
		if !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("%s %v: AppendJSON wrote %q, json.Marshal %q", v.Type(), v, got, want)
		}
	})
}
