package hybrid

import (
	"encoding/binary"
	"testing"

	"dedupcr/internal/chunk"
	"dedupcr/internal/fingerprint"
)

// FuzzHybridMetaUnmarshal drives the hybrid metadata decoder with
// arbitrary bytes: its shard and hint counts are peer-controlled and the
// hint count must be bounded before it sizes the map allocation.
func FuzzHybridMetaUnmarshal(f *testing.F) {
	var fp1, fp2 fingerprint.FP
	fp1[0], fp2[0] = 7, 9
	m := &meta{
		Rank:     1,
		K:        2,
		Group:    4,
		ShardLen: 123,
		Recipe:   chunk.Recipe{FPs: []fingerprint.FP{fp1, fp2}, Sizes: []int32{64, 32}},
		ShardFPs: []fingerprint.FP{fp1},
		Hints:    map[fingerprint.FP][]int32{fp2: {3}},
	}
	valid, err := m.marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	m.Recipe.Hash = fingerprint.SHA1
	legacy, err := m.marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)
	f.Add(legacyMetaBlob(0, 2, 4, []fingerprint.FP{fp1}, []int{64}, []fingerprint.FP{fp1}, 68))
	f.Add(valid[:12])
	f.Add(append(valid, 0))
	// Corrupt the hint count upward.
	hostile := append([]byte(nil), valid...)
	if i := len(hostile) - len(fp2) - 2 - 4 - 4; i >= 0 {
		binary.BigEndian.PutUint32(hostile[i:], 0x0FFFFFFF)
	}
	f.Add(hostile)

	f.Fuzz(func(t *testing.T, data []byte) {
		m2 := new(meta)
		if err := m2.unmarshal(data); err != nil {
			return
		}
		enc, err := m2.marshal()
		if err != nil {
			t.Fatalf("re-encode of decoded meta failed: %v", err)
		}
		if err := new(meta).unmarshal(enc); err != nil {
			t.Fatalf("re-decode of re-encoded meta failed: %v", err)
		}
	})
}
