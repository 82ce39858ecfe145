package relation

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if !Null().IsNull() {
		t.Fatal("Null() not null")
	}
	if got := Text("abc").AsText(); got != "abc" {
		t.Fatalf("AsText = %q", got)
	}
	if got := Int(-7).AsInt(); got != -7 {
		t.Fatalf("AsInt = %d", got)
	}
	if got := Float(2.5).AsFloat(); got != 2.5 {
		t.Fatalf("AsFloat = %v", got)
	}
	if !Bool(true).AsBool() || Bool(false).AsBool() {
		t.Fatal("AsBool wrong")
	}
	ts := time.Date(2025, 1, 19, 10, 0, 0, 0, time.UTC)
	if !Time(ts).AsTime().Equal(ts) {
		t.Fatal("AsTime mismatch")
	}
	if string(Blob([]byte{1, 2}).AsBlob()) != "\x01\x02" {
		t.Fatal("AsBlob mismatch")
	}
}

func TestValueAccessorPanicsOnTypeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_ = Int(1).AsText()
}

func TestCompareNumericCrossType(t *testing.T) {
	if Compare(Int(2), Float(2.0)) != 0 {
		t.Fatal("2 != 2.0")
	}
	if Compare(Int(1), Float(1.5)) != -1 {
		t.Fatal("1 < 1.5 failed")
	}
	if Compare(Float(3.5), Int(3)) != 1 {
		t.Fatal("3.5 > 3 failed")
	}
	// NaN orders above every other number and equals itself.
	nan := Float(math.NaN())
	if Compare(nan, Float(math.Inf(1))) != 1 || Compare(Int(7), nan) != -1 || Compare(nan, Float(-math.NaN())) != 0 {
		t.Fatal("NaN is not the greatest number")
	}
}

func TestCompareNullsFirst(t *testing.T) {
	if Compare(Null(), Int(0)) != -1 {
		t.Fatal("NULL should sort first")
	}
	if Compare(Int(0), Null()) != 1 {
		t.Fatal("NULL should sort first (rhs)")
	}
	if Compare(Null(), Null()) != 0 {
		t.Fatal("NULL vs NULL should be 0 for sorting")
	}
}

func TestEqualNullSemantics(t *testing.T) {
	if Equal(Null(), Null()) {
		t.Fatal("NULL = NULL must be false (SQL)")
	}
	if Equal(Null(), Int(1)) || Equal(Int(1), Null()) {
		t.Fatal("NULL = x must be false")
	}
	if !Equal(Text("a"), Text("a")) {
		t.Fatal("'a' = 'a'")
	}
}

func TestCompareText(t *testing.T) {
	if Compare(Text("apple"), Text("banana")) >= 0 {
		t.Fatal("apple < banana")
	}
	if Compare(Text("b"), Text("b")) != 0 {
		t.Fatal("b == b")
	}
}

func TestCompareTime(t *testing.T) {
	a := Time(time.Unix(100, 0))
	b := Time(time.Unix(200, 0))
	if Compare(a, b) != -1 || Compare(b, a) != 1 || Compare(a, a) != 0 {
		t.Fatal("time ordering wrong")
	}
}

func TestKeyEquivalence(t *testing.T) {
	// Values that compare equal must share a hash key (join correctness).
	if Int(5).Key() != Float(5.0).Key() {
		t.Fatal("5 and 5.0 must share a key")
	}
	if Text("5").Key() == Int(5).Key() {
		t.Fatal("'5' and 5 must not share a key")
	}
}

func TestKeyCompareAgreement(t *testing.T) {
	// Property: Compare(a,b)==0 implies a.Key()==b.Key() for same-type values.
	f := func(a, b int64) bool {
		va, vb := Int(a), Int(b)
		if Compare(va, vb) == 0 {
			return va.Key() == vb.Key()
		}
		return va.Key() != vb.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompareIsAntisymmetric(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		return Compare(Float(a), Float(b)) == -Compare(Float(b), Float(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompareStringAntisymmetric(t *testing.T) {
	f := func(a, b string) bool {
		return Compare(Text(a), Text(b)) == -Compare(Text(b), Text(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCoerceIntToFloat(t *testing.T) {
	v, err := Coerce(Int(3), TFloat)
	if err != nil || v.AsFloat() != 3.0 {
		t.Fatalf("coerce: %v %v", v, err)
	}
}

func TestCoerceFloatToIntLossless(t *testing.T) {
	v, err := Coerce(Float(4.0), TInt)
	if err != nil || v.AsInt() != 4 {
		t.Fatalf("coerce: %v %v", v, err)
	}
	if _, err := Coerce(Float(4.5), TInt); err == nil {
		t.Fatal("lossy coercion must fail")
	}
}

func TestCoerceTextParsing(t *testing.T) {
	if v, err := Coerce(Text(" 42 "), TInt); err != nil || v.AsInt() != 42 {
		t.Fatalf("text->int: %v %v", v, err)
	}
	if v, err := Coerce(Text("2.5"), TFloat); err != nil || v.AsFloat() != 2.5 {
		t.Fatalf("text->float: %v %v", v, err)
	}
	if v, err := Coerce(Text("true"), TBool); err != nil || !v.AsBool() {
		t.Fatalf("text->bool: %v %v", v, err)
	}
	if _, err := Coerce(Text("nope"), TInt); err == nil {
		t.Fatal("bad int text must fail")
	}
	if v, err := Coerce(Text("2025-01-19"), TTime); err != nil || v.AsTime().Year() != 2025 {
		t.Fatalf("text->time: %v %v", v, err)
	}
}

func TestCoerceNullPassthrough(t *testing.T) {
	v, err := Coerce(Null(), TInt)
	if err != nil || !v.IsNull() {
		t.Fatalf("NULL must coerce to NULL: %v %v", v, err)
	}
}

func TestCoerceAnythingToText(t *testing.T) {
	for _, v := range []Value{Int(1), Float(1.5), Bool(true), Time(time.Unix(0, 0))} {
		out, err := Coerce(v, TText)
		if err != nil || out.Type() != TText {
			t.Fatalf("coerce %v to text: %v %v", v, out, err)
		}
	}
}

func TestTypeString(t *testing.T) {
	cases := map[Type]string{
		TNull: "NULL", TText: "TEXT", TInt: "INTEGER", TFloat: "FLOAT",
		TBool: "BOOL", TTime: "DATETIME", TBlob: "BLOB",
	}
	for typ, want := range cases {
		if typ.String() != want {
			t.Fatalf("%d.String() = %q want %q", typ, typ.String(), want)
		}
	}
}

func TestValueStringRendering(t *testing.T) {
	if Int(5).String() != "5" {
		t.Fatal("int render")
	}
	if Float(2.5).String() != "2.5" {
		t.Fatal("float render")
	}
	if Bool(true).String() != "true" {
		t.Fatal("bool render")
	}
	if Null().String() != "NULL" {
		t.Fatal("null render")
	}
}
