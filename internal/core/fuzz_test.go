package core

import (
	"encoding/binary"
	"testing"

	"dedupcr/internal/chunk"
	"dedupcr/internal/fingerprint"
)

// fuzzMetaSeed builds one well-formed RestoreMeta encoding whose recipe
// names hash; SHA-1 recipes encode in the legacy layout.
func fuzzMetaSeed(f *testing.F, hash fingerprint.Func) []byte {
	var fp1, fp2 fingerprint.FP
	fp1[0], fp2[0] = 1, 2
	m := &RestoreMeta{
		Rank:   2,
		K:      3,
		Recipe: chunk.Recipe{FPs: []fingerprint.FP{fp1, fp2, fp1}, Sizes: []int32{4096, 4096, 100}, Hash: hash},
		Hints:  map[fingerprint.FP][]int32{fp2: {0, 1}},
	}
	blob, err := m.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	return blob
}

// FuzzRestoreMetaUnmarshal drives the restore-metadata decoder with
// arbitrary bytes: hint counts are peer-controlled and must be bounded
// before they size the hint map.
func FuzzRestoreMetaUnmarshal(f *testing.F) {
	valid := fuzzMetaSeed(f, fingerprint.Current)
	f.Add(valid)
	f.Add(fuzzMetaSeed(f, fingerprint.SHA1))
	data := [][]byte{[]byte("legacy"), []byte("meta")}
	f.Add(legacyMetaBlob(1, 2, []fingerprint.FP{fingerprint.SHA1.Of(data[0]), fingerprint.SHA1.Of(data[1])}, data, nil))
	f.Add(valid[:6])
	f.Add(append(valid, 1, 2, 3))
	// Corrupt the trailing hint count upward.
	hostile := append([]byte(nil), valid...)
	if len(hostile) > 4 {
		binary.BigEndian.PutUint32(hostile[len(hostile)-4:], 0x0FFFFFFF)
	}
	f.Add(hostile)

	f.Fuzz(func(t *testing.T, data []byte) {
		m := new(RestoreMeta)
		if err := m.UnmarshalBinary(data); err != nil {
			return
		}
		enc, err := m.MarshalBinary()
		if err != nil {
			t.Fatalf("re-encode of decoded meta failed: %v", err)
		}
		m2 := new(RestoreMeta)
		if err := m2.UnmarshalBinary(enc); err != nil {
			t.Fatalf("re-decode of re-encoded meta failed: %v", err)
		}
	})
}
