package record

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode"
	"unicode/utf8"
)

// jsonDecode is the reflective decoder the codec replaced, kept as the
// reference Decode is tested against: peek at the kind, then unmarshal the
// whole line into the record it names.
func jsonDecode(line []byte) (any, error) {
	var env struct {
		Kind Kind `json:"kind"`
	}
	if err := json.Unmarshal(line, &env); err != nil {
		return nil, err
	}
	var rec any
	switch env.Kind {
	case KindLog:
		rec = &LogRecord{}
	case KindLoop:
		rec = &LoopRecord{}
	case KindArg:
		rec = &ArgRecord{}
	case KindCkpt:
		rec = &CkptRecord{}
	case KindCommit:
		rec = &CommitRecord{}
	default:
		return nil, fmt.Errorf("unknown kind %q", env.Kind)
	}
	if err := json.Unmarshal(line, rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// foldName is encoding/json's case folding of keys.
func foldName(s string) string {
	var b strings.Builder
	for _, r := range s {
		b.WriteRune(unicode.ToUpper(unicode.ToLower(r)))
	}
	return b.String()
}

// foldOnlyKey reports whether a top-level key of line matches a record
// field only under encoding/json's case folding: the one place Decode is
// documented to differ from the reference.
func foldOnlyKey(line []byte) bool {
	var top map[string]json.RawMessage
	if json.Unmarshal(line, &top) != nil {
		return false
	}
	for key := range top {
		if _, exact := lookupField(key); exact {
			continue
		}
		for _, k := range fieldKeys {
			if foldName(key) == foldName(k) {
				return true
			}
		}
	}
	return false
}

// checkDecode holds Decode to the reference on one line: both reject, or
// both accept with equal records, unless a key matches only under folding.
func checkDecode(t *testing.T, line []byte) {
	t.Helper()
	got, err := Decode(line)
	want, werr := jsonDecode(line)
	if (err == nil) != (werr == nil) {
		if foldOnlyKey(line) {
			return
		}
		t.Fatalf("Decode(%q): err=%v, reference err=%v", line, err, werr)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(got, want) && !foldOnlyKey(line) {
		t.Fatalf("Decode(%q):\n got %#v\nwant %#v", line, got, want)
	}
}

// checkEncode holds AppendRecord to json.Marshal on one record: the same
// bytes, or an error exactly when json fails, and never a newline.
func checkEncode(t *testing.T, rec any) {
	t.Helper()
	want, werr := json.Marshal(rec)
	got, err := AppendRecord([]byte("prefix"), rec)
	if (err == nil) != (werr == nil) {
		t.Fatalf("encode %#v: err=%v, json err=%v", rec, err, werr)
	}
	if err != nil {
		if string(got) != "prefix" {
			t.Fatalf("failed encode extended dst: %q", got)
		}
		return
	}
	if !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("encode %#v:\n got %s\nwant %s", rec, got[len("prefix"):], want)
	}
	if bytes.IndexByte(got, '\n') >= 0 {
		t.Fatalf("encoded line holds a newline: %q", got)
	}
}

// makeRecord builds a record of kind k%6 from fuzzed fields: 3 is a
// checkpoint carrying its bytes, 5 one of an older release naming them by
// key.
func makeRecord(k uint8, s1, s2, s3, s4 string, n1, n2, n3 int64, wall time.Time) any {
	switch k % 6 {
	case 0:
		return &LogRecord{Kind: KindLog, ProjID: s1, Tstamp: n1, Filename: s2, CtxID: n2, ValueName: s3, Value: s4, ValueType: ValueType(n3), Wall: wall}
	case 1:
		return &LoopRecord{Kind: KindLoop, ProjID: s1, Tstamp: n1, Filename: s2, CtxID: n2, ParentCtxID: n3, LoopName: s3, LoopIter: n1 ^ n3, IterValue: s4, Wall: wall}
	case 2:
		return &ArgRecord{Kind: KindArg, ProjID: s1, Tstamp: n1, Filename: s2, Name: s3, Value: s4}
	case 3:
		return &CkptRecord{Kind: KindCkpt, ProjID: s1, Tstamp: n1, Filename: s2, CtxID: n2, Name: s3, Data: []byte(s4)}
	case 4:
		return &CommitRecord{Kind: KindCommit, ProjID: s1, Tstamp: n1, VID: s3 + s4, Wall: wall}
	default:
		return &CkptRecord{Kind: KindCkpt, ProjID: s1, Tstamp: n1, Filename: s2, CtxID: n2, Name: s3, BlobKey: s4}
	}
}

// fuzzWall builds a wall clock from fuzzed parts; zone offsets are any
// number of seconds, so MarshalJSON's zone-hour check is reached.
func fuzzWall(sec, nsec int64, offset int32) time.Time {
	return time.Unix(sec, nsec).In(time.FixedZone("", int(offset)))
}

// FuzzRecordEncode checks the encoder against json.Marshal on records
// built from arbitrary fields.
func FuzzRecordEncode(f *testing.F) {
	year := func(y int) int64 { return time.Date(y, 6, 7, 8, 9, 10, 0, time.UTC).Unix() }
	seeds := []struct {
		s1, s2, s3, s4 string
		n1, n2, n3     int64
		sec, nsec      int64
		off            int32
	}{
		{"p", "train.flow", "acc", "0.93", 3, 7, 2, 1700000000, 0, 0},
		{"<a href=\"x\">&amp;</a>", "\\path\\", "\b\f\n\r\t\x00\x01\x1f\x7f", "\u00e9\U0001F600", math.MinInt64, math.MaxInt64, -1, year(2024), 120000000, 3600},
		{"a\xffb", "\xc3\x28", "\xed\xa0\x80", "\xef\xbf\xbd", 0, -0, 1, year(-1), 1, -7200},
		{string([]rune{0x2028, 0x2029}), "\xe2\x80", "\xf4\x90\x80\x80", "'/", 1, 2, 3, year(0), 999999999, 0},
		{"", "", "", "", 0, 0, 0, year(9999), 100, 86399},
		{"x", "y", "z", "w", 1, 1, 1, year(10000), 0, 0},
		{"x", "y", "z", "w", 1, 1, 1, year(2000), 0, 24 * 3600},
		{"x", "y", "z", "w", 1, 1, 1, year(2000), 0, -100 * 3600},
	}
	for i, s := range seeds {
		f.Add(uint8(i), s.s1, s.s2, s.s3, s.s4, s.n1, s.n2, s.n3, s.sec, s.nsec, s.off)
	}
	// A checkpoint longer than the WAL's buffer, and a legacy key-only one.
	f.Add(uint8(3), "p", "train.flow", "ckpt::epoch::4", bigCkptData, int64(2), int64(9), int64(0), int64(0), int64(0), int32(0))
	f.Add(uint8(5), "p", "train.flow", "ckpt::epoch::4", "deadbeef", int64(2), int64(9), int64(0), int64(0), int64(0), int32(0))
	f.Fuzz(func(t *testing.T, k uint8, s1, s2, s3, s4 string, n1, n2, n3, sec, nsec int64, off int32) {
		rec := makeRecord(k, s1, s2, s3, s4, n1, n2, n3, fuzzWall(sec, nsec, off))
		checkEncode(t, rec)
		if line, err := Encode(rec); err == nil {
			checkDecode(t, line)
		}
	})
}

// decodeSeeds are lines that reach every decoding rule: escapes and
// surrogates, null, unknown and nested keys, duplicates, numbers that are
// not int64s, whitespace, and malformed syntax.
func decodeSeeds() []string {
	const u = `\` + "u" // starts a \u escape
	base := `"projid":"p","tstamp":1,"filename":"f","ctx_id":2,"value_name":"n","value":"v","value_type":0,"wall":"2026-09-27T06:29:07.207315069Z"`
	return []string{
		`{"kind":"log",` + base + `}`,
		`{"kind":"log","value":"` + u + `d83d` + u + `de00"}`, // surrogate pair
		`{"kind":"log","value":"` + u + `d83d"}`,              // lone high surrogate
		`{"kind":"log","value":"` + u + `de00x"}`,             // lone low surrogate
		`{"kind":"log","value":"` + u + `d83d` + u + `d83d` + u + `de00"}`,
		`{"kind":"log","value":"` + u + `d83d` + u + `0041"}`,
		`{"kind":"log","value":"` + u + `D83D` + u + `DE00` + u + `00e9` + u + `2028"}`,
		`{"kind":"log","value":"\"\\\/\b\f\n\r\t"}`,
		`{"kind":"log","value":"\'"}`,
		`{"kind":"log","value":"a` + "\xff" + `b","projid":"` + "\xed\xa0\x80" + `"}`,
		`{"kind":"log","value":"tab` + "\t" + `"}`,
		`{"kind":"log","projid":null,"tstamp":null,"wall":null}`,
		`{"kind":"log","projid":"a","projid":null}`,
		`{"kind":"log","projid":"a","projid":"b","tstamp":1,"tstamp":2}`,
		`{"kind":"log","tstamp":"1","tstamp":1}`,
		`{"kind":"log","extra":{"a":[1,{"b":null}],"c":"` + u + `d800"},"x":[],"y":{}}`,
		`{"kind":"arg","ctx_id":"not an int","wall":5,"name":"lr","value":"0.1"}`,
		`{"kind":"commit","wall":5}`,
		`{"kind":"commit","wall":"2026-09-27T06:29:07Z","wall":null}`,
		`{"kind":"commit","wall":"2026-09-27T06:29:07+05:30"}`,
		`{"kind":"commit","wall":"2026-09-27T06:29:07` + u + `005a"}`,
		`{"kind":"commit","wall":"not a time"}`,
		`{"kind":"log","tstamp":1e3}`,
		`{"kind":"log","tstamp":1.0}`,
		`{"kind":"log","tstamp":-0}`,
		`{"kind":"log","tstamp":01}`,
		`{"kind":"log","tstamp":9223372036854775807,"ctx_id":-9223372036854775808}`,
		`{"kind":"log","tstamp":9223372036854775808}`,
		`{"kind":"log","ctx_id":-9223372036854775809}`,
		`{"kind":"log","value_type":true}`,
		`{"kind":"log","value":1}`,
		`{"kind":"log","value":["a"]}`,
		`{"kind":"ckpt","data":"AP9zb21l"}`,
		`{"kind":"ckpt","data":"QQ\r\n=="}`,
		`{"kind":"ckpt","data":"` + u + `0041` + u + `0041=="}`,
		`{"kind":"ckpt","data":"A"}`,
		`{"kind":"ckpt","data":"` + "\xff" + `"}`,
		`{"kind":"ckpt","data":""}`,
		`{"kind":"ckpt","data":null}`,
		`{"kind":"ckpt","data":"QUJD","data":null}`,
		`{"kind":"ckpt","data":[]}`,
		`{"kind":"ckpt","data":[0, 255 ,7]}`,
		`{"kind":"ckpt","data":[256]}`,
		`{"kind":"ckpt","data":[-0]}`,
		`{"kind":"ckpt","data":[1.0]}`,
		`{"kind":"ckpt","data":[1e2]}`,
		`{"kind":"ckpt","data":["a"]}`,
		`{"kind":"ckpt","data":[[1]]}`,
		`{"kind":"ckpt","data":[true]}`,
		`{"kind":"ckpt","data":[null,1]}`,
		`{"kind":"ckpt","data":{}}`,
		`{"kind":"ckpt","data":7}`,
		`{"kind":"ckpt","data":true}`,
		`{"kind":"ckpt","data":"QUJD","data":[null,null,9,null,null]}`,
		`{"kind":"ckpt","data":[1,2,3],"data":[9],"data":[null,null,null,null,null]}`,
		`{"kind":"ckpt","data":[],"data":[null]}`,
		`{"kind":"ckpt","data":[1,2`,
		`{"kind":"ckpt","blob_key":"deadbeef","data":"AP8="}`,
		`{"kind":"log","data":[300,"x",{}]}`,
		" \t\r\n{ \"kind\" : \"loop\" , \"loop_iteration\" :\t4 }\n ",
		`{"kind":"l` + u + `006fop"}`,
		`{"k` + u + `0069nd":"ckpt"}`,
		`{"KIND":"log"}`,
		`{"Kind":"log","value":"v"}`,
		`{"kind":"log","VALUE":"v"}`,
		`{"kind":"log","kind":"arg","name":"n"}`,
		`{"kind":5,"kind":"log"}`,
		`{"kind":null}`,
		`{"kind":"nope"}`,
		`{}`,
		`null`,
		`[]`,
		`"log"`,
		`{"kind":"log"`,
		`{"kind":"log",}`,
		`{"kind":"log"} x`,
		`{"kind":"log"}{}`,
		`{"kind" "log"}`,
		`{kind:"log"}`,
		`{"kind":"log","x":tru}`,
		`{"kind":"log","x":-}`,
		`{"kind":"log","x":1.}`,
		`{"kind":"log","x":1e}`,
		`{"kind":"log","x":"` + u + `12"}`,
		`{"kind":"log","x":"\x"}`,
		"{\"kind\":\"log\",\"x\":\"a\x01b\"}",
		`{"kind":"log","x":` + strings.Repeat("[", maxDepth-1) + strings.Repeat("]", maxDepth-1) + `}`,
		`{"kind":"log","x":` + strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth) + `}`,
		"",
		"   ",
	}
}

// parentProjectLines returns the WAL lines of the checked-in project an
// older release wrote.
func parentProjectLines(tb testing.TB) [][]byte {
	tb.Helper()
	data, err := os.ReadFile("../../testdata/parent_project/.flor/flor.wal")
	if err != nil {
		tb.Fatal(err)
	}
	return bytes.Split(bytes.TrimSpace(data), []byte("\n"))
}

func TestLookupFieldMatchesFieldKeys(t *testing.T) {
	for f, key := range fieldKeys {
		if got, ok := lookupField(key); !ok || got != field(f) {
			t.Fatalf("lookupField(%q) = %d, %v; want %d", key, got, ok, f)
		}
	}
}

func TestDecodeMatchesJSON(t *testing.T) {
	for _, line := range decodeSeeds() {
		checkDecode(t, []byte(line))
	}
}

func TestFoldOnlyKeyIsTheOneDifference(t *testing.T) {
	for _, line := range []string{`{"KIND":"log"}`, `{"kind":"log","Value":"v"}`, `{"kind":"arg","NAME":"n"}`} {
		got, err := Decode([]byte(line))
		want, werr := jsonDecode([]byte(line))
		if (err == nil) == (werr == nil) && reflect.DeepEqual(got, want) {
			t.Fatalf("%s: expected the documented difference", line)
		}
		if !foldOnlyKey([]byte(line)) {
			t.Fatalf("%s: not recognised as a fold-only key", line)
		}
	}
}

func mustDecode(t *testing.T, line string) any {
	t.Helper()
	rec, err := Decode([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestEncodeMatchesJSON(t *testing.T) {
	walls := []time.Time{
		{},
		time.Date(2026, 9, 27, 6, 29, 7, 207315069, time.UTC),
		time.Date(2026, 9, 27, 6, 29, 7, 200000000, time.FixedZone("", 5*3600+1800)),
		time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2000, 1, 1, 0, 0, 0, 0, time.FixedZone("", 24*3600)),
		time.Date(2000, 1, 1, 0, 0, 0, 0, time.FixedZone("", -23*3600-59*60)),
	}
	strs := []string{"", "plain", "<&>", "\"\\", "\x00\x1f\x7f", "\xff", "\xed\xa0\x80", string([]rune{0x2028, 0x2029, 0xfffd}), "\U0001F600"}
	for i, w := range walls {
		for k := uint8(0); k < 6; k++ {
			s := strs[i%len(strs)]
			checkEncode(t, makeRecord(k, s, strs[(i+1)%len(strs)], s+s, "v"+s, int64(i), math.MinInt64, math.MaxInt64, w))
		}
	}
	for _, rec := range ckptRecords {
		checkEncode(t, rec)
	}
	for _, rec := range []any{nil, "x", LogRecord{}} {
		if _, err := AppendRecord(nil, rec); err == nil {
			t.Fatalf("AppendRecord(%#v) must fail", rec)
		}
	}
}

// TestParentProjectLinesRoundTrip: lines an older release wrote decode as
// the reference decodes them and re-encode to the same bytes.
func TestParentProjectLinesRoundTrip(t *testing.T) {
	for _, line := range parentProjectLines(t) {
		checkDecode(t, line)
		again, err := Encode(mustDecode(t, string(line)))
		if err != nil || !bytes.Equal(again, line) {
			t.Fatalf("re-encode: %v\n got %s\nwant %s", err, again, line)
		}
	}
}

func TestSanitizeMatchesEncoder(t *testing.T) {
	for _, s := range []string{"", "ok", "a\xffb", "\xed\xa0\x80", "\xe2\x80", "\xf4\x90\x80\x80", "\xef\xbf\xbd"} {
		rec := &ArgRecord{Kind: KindArg, Value: s}
		line, err := Encode(rec)
		if err != nil {
			t.Fatal(err)
		}
		Sanitize(rec)
		got := mustDecode(t, string(line)).(*ArgRecord).Value
		if rec.Value != got || !utf8.ValidString(got) {
			t.Fatalf("Sanitize(%q) = %q, line carries %q", s, rec.Value, got)
		}
	}
	for _, rec := range ckptRecords {
		line, err := Encode(rec)
		if err != nil {
			t.Fatal(err)
		}
		Sanitize(rec)
		if got := mustDecode(t, string(line)); !reflect.DeepEqual(got, rec) {
			t.Fatalf("Sanitize left %.80q, line carries %.80q", fmt.Sprint(rec), fmt.Sprint(got))
		}
	}
}

// bigCkptData is checkpoint bytes longer than the WAL's 64 KiB write buffer
// and the replay reader's, holding NUL and 0xff.
var bigCkptData = strings.Repeat("\x00\xffw", 25<<10)

// ckptRecords are a checkpoint carrying bigCkptData and one of an older
// release naming its bytes by key.
var ckptRecords = []*CkptRecord{
	{Kind: KindCkpt, ProjID: "p", Tstamp: 2, Filename: "train.flow", CtxID: 9, Name: "ckpt::epoch::4", Data: []byte(bigCkptData)},
	{Kind: KindCkpt, ProjID: "p", Tstamp: 2, Filename: "train.flow", CtxID: 9, Name: "ckpt::epoch::4", BlobKey: "deadbeef"},
}

// allocRecords are records with every string field non-empty, as the
// recording path writes them.
var allocRecords = []any{
	&LogRecord{Kind: KindLog, ProjID: "proj", Tstamp: 12, Filename: "train.flow", CtxID: 3, ValueName: "loss", Value: "0.25", ValueType: VTFloat, Wall: time.Now().UTC()},
	&LoopRecord{Kind: KindLoop, ProjID: "proj", Tstamp: 12, Filename: "train.flow", CtxID: 4, ParentCtxID: 3, LoopName: "epoch", LoopIter: 2, IterValue: "2", Wall: time.Now().UTC()},
	&ArgRecord{Kind: KindArg, ProjID: "proj", Tstamp: 12, Filename: "train.flow", Name: "lr", Value: "0.01"},
	&CkptRecord{Kind: KindCkpt, ProjID: "proj", Tstamp: 12, Filename: "train.flow", CtxID: 4, Name: "ckpt::epoch::2", Data: []byte{0, 0xff, 'w'}},
	&CkptRecord{Kind: KindCkpt, ProjID: "proj", Tstamp: 12, Filename: "train.flow", CtxID: 4, Name: "ckpt::epoch::2", BlobKey: "deadbeef"},
	&CommitRecord{Kind: KindCommit, ProjID: "proj", Tstamp: 12, VID: "v12", Wall: time.Now().UTC()},
}

func TestEncodeAllocatesNothingIntoABuffer(t *testing.T) {
	buf := make([]byte, 0, 1024)
	for _, rec := range allocRecords {
		if n := testing.AllocsPerRun(100, func() {
			buf, _ = AppendRecord(buf[:0], rec)
		}); n != 0 {
			t.Errorf("AppendRecord(%T): %v allocs per record, want 0", rec, n)
		}
	}
}

// TestDecodeAllocations pins Decode to one allocation per string or byte
// field plus the record, escaped strings included.
func TestDecodeAllocations(t *testing.T) {
	for _, rec := range allocRecords {
		line, err := Encode(rec)
		if err != nil {
			t.Fatal(err)
		}
		strs := 0
		v := reflect.ValueOf(rec).Elem()
		for i := 0; i < v.NumField(); i++ {
			if k := v.Field(i).Kind(); (k == reflect.String || k == reflect.Slice) && v.Type().Field(i).Name != "Kind" {
				strs++
			}
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = Decode(line) }); n > float64(strs+1) {
			t.Errorf("Decode(%s): %v allocs, want at most %d", line, n, strs+1)
		}
	}
	escaped := []byte(`{"kind":"arg","projid":"p\"q","tstamp":1,"filename":"a\u00e9","name":"\n","value":"<x>"}`)
	if n := testing.AllocsPerRun(100, func() { _, _ = Decode(escaped) }); n > 5 {
		t.Errorf("Decode(%s): %v allocs, want at most 5", escaped, n)
	}
}

// BenchmarkRecordCodec times one log record through the codec and through
// the reflective encoding/json path it replaced.
func BenchmarkRecordCodec(b *testing.B) {
	rec := allocRecords[0]
	line, err := Encode(rec)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode/codec", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf, _ = AppendRecord(buf[:0], rec)
		}
	})
	b.Run("encode/json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = json.Marshal(rec)
		}
	})
	b.Run("decode/codec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = Decode(line)
		}
	})
	b.Run("decode/json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = jsonDecode(line)
		}
	})
}
