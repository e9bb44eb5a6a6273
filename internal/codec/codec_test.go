package codec

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestEncodeTupleRoundTrip(t *testing.T) {
	cases := [][]string{
		nil,
		{""},
		{"a"},
		{"a", "b"},
		{"a|b", "c\\d"},
		{"", ""},
		{"()", "()"},
		{"|", "\\", "|\\|"},
		{"state with spaces", "ütf-8 ✓"},
	}
	for _, in := range cases {
		enc := EncodeTuple(in)
		out, err := DecodeTuple(enc)
		if err != nil {
			t.Fatalf("DecodeTuple(%q): %v", enc, err)
		}
		if len(in) == 0 && len(out) == 0 {
			continue
		}
		if !reflect.DeepEqual(in, out) {
			t.Errorf("round trip %v -> %q -> %v", in, enc, out)
		}
	}
}

func TestEncodeTupleInjective(t *testing.T) {
	pairs := [][2][]string{
		{{"a", "b"}, {"a|b"}},
		{{"a", ""}, {"a"}},
		{{"", "a"}, {"a"}},
		{{"\\"}, {"\\\\"}},
		{{}, {""}},
		{{"x", "y", "z"}, {"x", "y|z"}},
	}
	for _, p := range pairs {
		if EncodeTuple(p[0]) == EncodeTuple(p[1]) {
			t.Errorf("collision: %v and %v both encode to %q", p[0], p[1], EncodeTuple(p[0]))
		}
	}
}

func TestEncodeTupleRoundTripQuick(t *testing.T) {
	prop := func(parts []string) bool {
		enc := EncodeTuple(parts)
		out, err := DecodeTuple(enc)
		if err != nil {
			return false
		}
		if len(parts) == 0 {
			return len(out) == 0
		}
		return reflect.DeepEqual(parts, out)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestEncodeTupleInjectiveQuick(t *testing.T) {
	prop := func(a, b []string) bool {
		ea, eb := EncodeTuple(a), EncodeTuple(b)
		if reflect.DeepEqual(a, b) || (len(a) == 0 && len(b) == 0) {
			return ea == eb
		}
		return ea != eb
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDecodeTupleErrors(t *testing.T) {
	if _, err := DecodeTuple("abc\\"); err == nil {
		t.Error("expected error for dangling escape")
	}
}

func TestMustDecodeTuplePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on malformed input")
		}
	}()
	MustDecodeTuple("bad\\")
}

func TestEncodeTagged(t *testing.T) {
	enc := EncodeTagged("hide", "q0", "q1")
	tag, parts, err := DecodeTagged(enc)
	if err != nil {
		t.Fatal(err)
	}
	if tag != "hide" || !reflect.DeepEqual(parts, []string{"q0", "q1"}) {
		t.Errorf("got tag=%q parts=%v", tag, parts)
	}
}

func TestDecodeTaggedErrors(t *testing.T) {
	if _, _, err := DecodeTagged(EncodeTuple([]string{"notag"})); err == nil {
		t.Error("expected error for untagged input")
	}
	if _, _, err := DecodeTagged("x\\"); err == nil {
		t.Error("expected error for malformed input")
	}
}

func TestEncodeSortedSetCanonical(t *testing.T) {
	a := EncodeSortedSet([]string{"b", "a", "c"})
	b := EncodeSortedSet([]string{"c", "b", "a"})
	if a != b {
		t.Errorf("set encodings differ: %q vs %q", a, b)
	}
	if EncodeSortedSet(nil) != EncodeTuple(nil) {
		t.Error("empty set should encode like empty tuple")
	}
}

func TestEncodeSortedSetDoesNotMutate(t *testing.T) {
	in := []string{"b", "a"}
	EncodeSortedSet(in)
	if in[0] != "b" || in[1] != "a" {
		t.Error("EncodeSortedSet mutated its input")
	}
}

func TestEncodePairsRoundTrip(t *testing.T) {
	m := map[string]string{"A1": "q|0", "A2": "s\\1", "": "empty-key-value"}
	enc := EncodePairs(m)
	out, err := DecodePairs(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, out) {
		t.Errorf("round trip mismatch: %v -> %v", m, out)
	}
}

func TestEncodePairsCanonical(t *testing.T) {
	// Maps iterate in random order; encoding must not depend on it.
	m := map[string]string{"x": "1", "y": "2", "z": "3", "w": "4"}
	first := EncodePairs(m)
	for i := 0; i < 20; i++ {
		if EncodePairs(m) != first {
			t.Fatal("EncodePairs is not deterministic")
		}
	}
}

func TestEncodePairsRoundTripQuick(t *testing.T) {
	prop := func(m map[string]string) bool {
		out, err := DecodePairs(EncodePairs(m))
		if err != nil {
			return false
		}
		if len(m) == 0 {
			return len(out) == 0
		}
		return reflect.DeepEqual(m, out)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDecodePairsErrors(t *testing.T) {
	if _, err := DecodePairs("x\\"); err == nil {
		t.Error("expected error for malformed outer tuple")
	}
	// A tuple whose entry is not a 2-tuple.
	bad := EncodeTuple([]string{EncodeTuple([]string{"only-one"})})
	if _, err := DecodePairs(bad); err == nil {
		t.Error("expected error for non-pair entry")
	}
}

func TestBitLen(t *testing.T) {
	if got := BitLen("abcd"); got != 32 {
		t.Errorf("BitLen(abcd) = %d, want 32", got)
	}
	if got := BitLen(""); got != 0 {
		t.Errorf("BitLen(\"\") = %d, want 0", got)
	}
}

func TestAppendToTuple(t *testing.T) {
	cases := []struct{ base, extra []string }{
		{[]string{"a"}, []string{"b"}},
		{[]string{"a", "b"}, []string{"c", "d"}},
		{[]string{"q|0"}, []string{"a\\x", "q1"}},
		{[]string{""}, []string{""}},
		{[]string{"|", "\\"}, []string{"|\\|", "()"}},
		{[]string{"x"}, nil},
	}
	for _, c := range cases {
		got := AppendToTuple(EncodeTuple(c.base), c.extra...)
		want := EncodeTuple(append(append([]string(nil), c.base...), c.extra...))
		if got != want {
			t.Errorf("AppendToTuple(%v, %v) = %q, want %q", c.base, c.extra, got, want)
		}
	}
}

func TestAppendToTupleQuick(t *testing.T) {
	prop := func(base []string, extra []string) bool {
		if len(base) == 0 {
			// The incremental form is only specified for non-empty prefixes:
			// EncodeTuple(nil) is the sentinel "()", which must not be
			// extended in place.
			return true
		}
		got := AppendToTuple(EncodeTuple(base), extra...)
		want := EncodeTuple(append(append([]string(nil), base...), extra...))
		return got == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestEncodeTupleSentinelComponent(t *testing.T) {
	// A singleton component equal to the empty-tuple sentinel must not
	// collide with the empty tuple, and must round-trip.
	if EncodeTuple([]string{"()"}) == EncodeTuple(nil) {
		t.Fatal("singleton \"()\" collides with the empty tuple")
	}
	for _, in := range [][]string{{"()"}, {"()", "x"}, {"x", "()"}, {"()", "()"}} {
		out, err := DecodeTuple(EncodeTuple(in))
		if err != nil {
			t.Fatalf("DecodeTuple: %v", err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Errorf("round trip %v -> %q -> %v", in, EncodeTuple(in), out)
		}
	}
	// The incremental form must agree on sentinel components too.
	if AppendToTuple(EncodeTuple([]string{"()"}), "()") != EncodeTuple([]string{"()", "()"}) {
		t.Error("AppendToTuple disagrees with EncodeTuple on sentinel components")
	}
}

func TestAppendTupleMatchesEncodeTuple(t *testing.T) {
	cases := [][]string{
		nil,
		{},
		{""},
		{"()"},
		{"()", "()"},
		{"a", "()", ""},
		{"a|b", "c\\d", "\\|"},
		{EncodeTuple([]string{"x|y", "()"}), EncodeTuple(nil)},
	}
	for _, prefix := range []string{"", "junk|"} {
		for _, c := range cases {
			got := AppendTuple([]byte(prefix), c...)
			if want := prefix + EncodeTuple(c); string(got) != want {
				t.Errorf("AppendTuple(%q, %q) = %q, want %q", prefix, c, got, want)
			}
			out, err := DecodeTuple(string(got[len(prefix):]))
			if err != nil {
				t.Fatalf("DecodeTuple(%q): %v", got[len(prefix):], err)
			}
			if len(c) == 0 {
				c = nil
			}
			if !reflect.DeepEqual(out, c) {
				t.Errorf("round trip %q -> %q -> %q", c, got, out)
			}
		}
	}
}

func TestAppendTupleQuick(t *testing.T) {
	prop := func(prefix []byte, parts []string) bool {
		got := AppendTuple(append([]byte(nil), prefix...), parts...)
		return string(got) == string(prefix)+EncodeTuple(parts)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestTupleEncodingExactSize pins the sizing of the encoders: a nested
// product state escapes every separator of its inner tuples, and an
// encoder that sized its buffer from the unescaped length would regrow it.
func TestTupleEncodingExactSize(t *testing.T) {
	inner := EncodeTuple([]string{"s|1", "\\q", "()", EncodeTuple([]string{"a|b", "c"})})
	parts := []string{inner, "x", inner, "()"}
	if n := testing.AllocsPerRun(100, func() { _ = EncodeTuple(parts) }); n != 1 {
		t.Errorf("EncodeTuple on a nested escaped tuple: %v allocs, want 1", n)
	}
	enc := EncodeTuple(parts[:1])
	if n := testing.AllocsPerRun(100, func() { _ = AppendToTuple(enc, parts[1:]...) }); n != 1 {
		t.Errorf("AppendToTuple on a nested escaped tuple: %v allocs, want 1", n)
	}
	buf := make([]byte, 0, 2*len(EncodeTuple(parts)))
	if n := testing.AllocsPerRun(100, func() { buf = AppendTuple(buf[:0], parts...) }); n != 0 {
		t.Errorf("AppendTuple into a large enough buffer: %v allocs, want 0", n)
	}
}
