package chunk

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"dedupcr/internal/fingerprint"
)

func TestFixedSplitCoversBuffer(t *testing.T) {
	check := func(seed int64, sz uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		buf := make([]byte, int(sz))
		rng.Read(buf)
		chunks := NewFixed(64).Split(buf)
		var joined []byte
		for _, c := range chunks {
			joined = append(joined, c.Data...)
			if fingerprint.Of(c.Data) != c.FP {
				return false
			}
		}
		return bytes.Equal(joined, buf)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFixedSplitSizes(t *testing.T) {
	buf := make([]byte, 1000)
	chunks := NewFixed(256).Split(buf)
	if len(chunks) != 4 {
		t.Fatalf("got %d chunks, want 4", len(chunks))
	}
	for i := 0; i < 3; i++ {
		if len(chunks[i].Data) != 256 {
			t.Errorf("chunk %d size = %d, want 256", i, len(chunks[i].Data))
		}
	}
	if len(chunks[3].Data) != 232 {
		t.Errorf("tail chunk size = %d, want 232", len(chunks[3].Data))
	}
}

func TestFixedDefaultSize(t *testing.T) {
	buf := make([]byte, 3*DefaultSize)
	if got := len(NewFixed(0).Split(buf)); got != 3 {
		t.Fatalf("default chunker made %d chunks, want 3", got)
	}
}

func TestFixedSplitEmpty(t *testing.T) {
	if got := NewFixed(64).Split(nil); len(got) != 0 {
		t.Fatalf("empty buffer produced %d chunks", len(got))
	}
}

func TestRecipeRoundTrip(t *testing.T) {
	buf := []byte("aaaa" + "bbbb" + "aaaa" + "cc")
	chunks := NewFixed(4).Split(buf)
	r := BuildRecipe(chunks)
	if r.Len() != 4 {
		t.Fatalf("recipe length = %d, want 4", r.Len())
	}
	if r.TotalBytes() != int64(len(buf)) {
		t.Fatalf("TotalBytes = %d, want %d", r.TotalBytes(), len(buf))
	}
	if got := len(r.Unique()); got != 3 {
		t.Fatalf("unique fingerprints = %d, want 3 (aaaa duplicated)", got)
	}

	index := make(map[fingerprint.FP][]byte)
	for _, c := range chunks {
		index[c.FP] = c.Data
	}
	out, err := r.Assemble(func(fp fingerprint.FP) ([]byte, error) {
		data, ok := index[fp]
		if !ok {
			return nil, fmt.Errorf("missing")
		}
		return data, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, buf) {
		t.Fatal("assembled buffer differs from original")
	}
}

func TestAssembleDetectsCorruption(t *testing.T) {
	buf := []byte("aaaabbbb")
	chunks := NewFixed(4).Split(buf)
	r := BuildRecipe(chunks)
	_, err := r.Assemble(func(fp fingerprint.FP) ([]byte, error) {
		return []byte("XXXX"), nil // wrong content, right length
	})
	if err == nil {
		t.Fatal("Assemble accepted corrupt chunk content")
	}
	_, err = r.Assemble(func(fp fingerprint.FP) ([]byte, error) {
		return []byte("toolongforachunk"), nil
	})
	if err == nil {
		t.Fatal("Assemble accepted wrong-size chunk")
	}
}

func TestRecipeWireRoundTrip(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		buf := make([]byte, rng.Intn(5000))
		rng.Read(buf)
		r := BuildRecipe(NewFixed(128).Split(buf))
		blob, err := r.MarshalBinary()
		if err != nil {
			return false
		}
		var back Recipe
		if err := back.UnmarshalBinary(blob); err != nil {
			return false
		}
		if back.Len() != r.Len() || back.TotalBytes() != r.TotalBytes() {
			return false
		}
		for i := range r.FPs {
			if back.FPs[i] != r.FPs[i] || back.Sizes[i] != r.Sizes[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRecipeRejectsTruncation(t *testing.T) {
	r := BuildRecipe(NewFixed(4).Split([]byte("aaaabbbbcccc")))
	blob, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 2, len(blob) - 1} {
		var back Recipe
		if err := back.UnmarshalBinary(blob[:cut]); err == nil {
			t.Errorf("cut at %d: expected error", cut)
		}
	}
}

// legacyRecipeBlob writes a recipe in the layout used before recipes
// named their fingerprint function: u32 count, then (FP, u32 size) pairs,
// with SHA-1 fingerprints.
func legacyRecipeBlob(chunks [][]byte) []byte {
	blob := binary.BigEndian.AppendUint32(nil, uint32(len(chunks)))
	for _, c := range chunks {
		fp := fingerprint.SHA1.Of(c)
		blob = append(blob, fp[:]...)
		blob = binary.BigEndian.AppendUint32(blob, uint32(len(c)))
	}
	return blob
}

func TestRecipeRecordsFunction(t *testing.T) {
	r := BuildRecipe(NewFixed(4).Split([]byte("aaaabbbbcc")))
	if r.Hash != fingerprint.Current {
		t.Fatalf("BuildRecipe recorded %v, want %v", r.Hash, fingerprint.Current)
	}
	blob, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(blob[:len(recipeMagic)]) != recipeMagic || fingerprint.Func(blob[len(recipeMagic)]) != fingerprint.Current {
		t.Fatalf("encoding does not open with the function prefix: % x", blob[:8])
	}
	var back Recipe
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if back.Hash != r.Hash {
		t.Fatalf("decoded function %v, want %v", back.Hash, r.Hash)
	}
	bad := append([]byte(nil), blob...)
	bad[len(recipeMagic)] = 0x7f
	if err := back.UnmarshalBinary(bad); err == nil {
		t.Fatal("decoded a recipe naming an unknown function")
	}
}

// TestLegacyRecipe checks that a recipe written before the function was
// recorded decodes as SHA-1, assembles under SHA-1 verification, and
// re-encodes to the same bytes.
func TestLegacyRecipe(t *testing.T) {
	chunks := [][]byte{[]byte("aaaa"), []byte("bbbb"), []byte("aaaa"), []byte("cc")}
	blob := legacyRecipeBlob(chunks)
	r, rest, err := DecodeRecipe(blob)
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode: %v (%d bytes left)", err, len(rest))
	}
	if r.Hash != fingerprint.SHA1 {
		t.Fatalf("legacy recipe decoded as %v, want sha1", r.Hash)
	}
	index := make(map[fingerprint.FP][]byte)
	for _, c := range chunks {
		index[fingerprint.SHA1.Of(c)] = c
	}
	out, err := r.Assemble(func(fp fingerprint.FP) ([]byte, error) { return index[fp], nil })
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "aaaabbbbaaaacc" {
		t.Fatalf("assembled %q", out)
	}
	again, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, blob) {
		t.Fatal("legacy recipe re-encoded differently")
	}
}

// TestAssembleVerifiedTrustsLookup pins the split of duties: a lookup
// that verified its chunks is not second-guessed, but lengths still are.
func TestAssembleVerifiedTrustsLookup(t *testing.T) {
	r := BuildRecipe(NewFixed(4).Split([]byte("aaaabbbb")))
	out, err := r.AssembleVerified(func(fingerprint.FP) ([]byte, error) { return []byte("XXXX"), nil })
	if err != nil || string(out) != "XXXXXXXX" {
		t.Fatalf("AssembleVerified = %q, %v", out, err)
	}
	if _, err := r.AssembleVerified(func(fingerprint.FP) ([]byte, error) { return []byte("X"), nil }); err == nil {
		t.Fatal("AssembleVerified accepted a wrong-size chunk")
	}
}

// TestCutsMatchSplit pins the CutChunker contract: Cuts + FromCuts must
// produce exactly what Split produces (gear pins the same contract in
// its own package), with and without a trailing partial chunk, so the
// instrumented dump path (which times the two halves separately) cannot
// drift from the plain one.
func TestCutsMatchSplit(t *testing.T) {
	buf := make([]byte, 40*1024+123)
	rand.New(rand.NewSource(7)).Read(buf)
	chunkers := map[string]CutChunker{
		"fixed": NewFixed(4096),
		"short": NewFixed(1000),
	}
	for name, c := range chunkers {
		cuts := c.Cuts(buf)
		if len(cuts) == 0 || cuts[len(cuts)-1] != len(buf) {
			t.Fatalf("%s: cuts do not cover buf: %v", name, cuts)
		}
		prev := 0
		for i, end := range cuts {
			if end <= prev {
				t.Fatalf("%s: cut %d (%d) not ascending from %d", name, i, end, prev)
			}
			prev = end
		}
		got := FromCuts(buf, cuts)
		want := c.Split(buf)
		if len(got) != len(want) {
			t.Fatalf("%s: %d chunks via cuts, %d via Split", name, len(got), len(want))
		}
		for i := range got {
			if got[i].FP != want[i].FP || len(got[i].Data) != len(want[i].Data) {
				t.Fatalf("%s: chunk %d differs", name, i)
			}
		}
	}
	if cuts := NewFixed(512).Cuts(nil); len(cuts) != 0 {
		t.Errorf("empty buf produced cuts %v", cuts)
	}
}
