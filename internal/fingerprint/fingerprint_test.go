package fingerprint

import (
	"bytes"
	"testing"
	"testing/quick"
)

// TestKnownAnswers pins both functions to the FIPS 180 "abc" vectors:
// SHA-1 in full, SHA-256 truncated to its first 160 bits. A checkpoint's
// fingerprints are persisted, so a function may never drift.
func TestKnownAnswers(t *testing.T) {
	cases := []struct {
		h    Func
		want string
	}{
		{SHA1, "a9993e364706816aba3e25717850c26c9cd0d89d"},
		{SHA256, "ba7816bf8f01cfea414140de5dae2223b00361a3"},
	}
	for _, c := range cases {
		if got := c.h.Of([]byte("abc")).String(); got != c.want {
			t.Errorf("%v(abc) = %s, want %s", c.h, got, c.want)
		}
	}
	if Of([]byte("abc")) != Current.Of([]byte("abc")) {
		t.Error("Of differs from Current.Of")
	}
	var dst [1]FP
	BatchOf(dst[:], []byte("abc"))
	if got := dst[0].String(); got != cases[1].want {
		t.Errorf("BatchOf(abc) = %s, want %s", got, cases[1].want)
	}
}

func TestFuncValid(t *testing.T) {
	for _, h := range []Func{SHA256, SHA1} {
		if !h.Valid() {
			t.Errorf("%v not valid", h)
		}
	}
	if Func(2).Valid() {
		t.Error("unknown function id accepted")
	}
}

func TestOfEmpty(t *testing.T) {
	if Of(nil) != Of([]byte{}) {
		t.Fatal("Of(nil) and Of(empty) differ")
	}
}

func TestStringAndShort(t *testing.T) {
	fp := Of([]byte("x"))
	if len(fp.String()) != 2*Size {
		t.Errorf("String() length = %d, want %d", len(fp.String()), 2*Size)
	}
	if len(fp.Short()) != 8 {
		t.Errorf("Short() length = %d, want 8", len(fp.Short()))
	}
	if fp.String()[:8] != fp.Short() {
		t.Errorf("Short() %q is not a prefix of String() %q", fp.Short(), fp.String())
	}
}

func TestCompareConsistentWithBytes(t *testing.T) {
	check := func(a, b [Size]byte) bool {
		f, g := FP(a), FP(b)
		want := bytes.Compare(a[:], b[:])
		if f.Compare(g) != want {
			return false
		}
		if f.Less(g) != (want < 0) {
			return false
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	fp := Of([]byte("payload"))
	buf := fp.Marshal(nil)
	got, rest, err := UnmarshalFP(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != fp {
		t.Errorf("round trip: got %s, want %s", got, fp)
	}
	if len(rest) != 0 {
		t.Errorf("unexpected %d trailing bytes", len(rest))
	}
}

func TestUnmarshalShortBuffer(t *testing.T) {
	if _, _, err := UnmarshalFP(make([]byte, Size-1)); err == nil {
		t.Fatal("expected error on short buffer")
	}
}

func TestBucketRange(t *testing.T) {
	check := func(a [Size]byte, n uint8) bool {
		buckets := int(n%16) + 1
		b := FP(a).Bucket(buckets)
		return b >= 0 && b < buckets
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
	if (FP{}).Bucket(0) != 0 || (FP{}).Bucket(1) != 0 {
		t.Error("degenerate bucket counts must map to 0")
	}
}
