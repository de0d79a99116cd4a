package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dedupcr/internal/chunk"
	"dedupcr/internal/collectives"
	"dedupcr/internal/fingerprint"
	"dedupcr/internal/metrics"
	"dedupcr/internal/storage"
)

// TestShuffleNeverLosesToIdentity is the property behind the shuffle
// guard: over seeded random workloads, the planned max window of a
// shuffled coll-dedup dump never exceeds that of the same dump without
// shuffling.
func TestShuffleNeverLosesToIdentity(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(9)
		k := 2 + rng.Intn(min(n-1, 4))
		shared, group := rng.Intn(8), rng.Intn(6)
		unique := make([]int, n)
		for r := range unique {
			unique[r] = rng.Intn(12)
			if rng.Intn(4) == 0 {
				unique[r] += 20 // a heavy rank
			}
		}
		var maxWin [2]int64
		for i, on := range []bool{false, true} {
			o := Options{K: k, Approach: CollDedup, ChunkSize: testPage, Shuffle: Bool(on), Name: "ck"}
			cluster := storage.NewCluster(n)
			var mu sync.Mutex
			var plan *Plan
			err := collectives.Run(n, func(c collectives.Comm) error {
				buf := testBuffer(c.Rank(), shared, group, 1, unique[c.Rank()])
				res, err := DumpOutput(c, cluster.Node(c.Rank()), buf, o)
				if err != nil {
					return err
				}
				mu.Lock()
				plan = res.Plan
				mu.Unlock()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			maxWin[i] = metrics.Max(plan.RecvBytesByRank())
		}
		if maxWin[1] > maxWin[0] {
			t.Errorf("seed %d (n=%d K=%d): shuffled max window %d > identity's %d", seed, n, k, maxWin[1], maxWin[0])
		}
	}
}

// corruptingStore serves a bit-flipped copy of the chunks in bad and
// records every PutChunk whose bytes do not hash to their fingerprint.
type corruptingStore struct {
	storage.Store
	bad map[fingerprint.FP]bool

	mu         sync.Mutex
	badPuts    int
	corruptRds int
}

func (s *corruptingStore) GetChunk(fp fingerprint.FP) ([]byte, error) {
	data, err := s.Store.GetChunk(fp)
	if err != nil || !s.bad[fp] {
		return data, err
	}
	s.mu.Lock()
	s.corruptRds++
	s.mu.Unlock()
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x40
	return flipped, nil
}

func (s *corruptingStore) PutChunk(fp fingerprint.FP, data []byte) error {
	if fingerprint.Of(data) != fp {
		s.mu.Lock()
		s.badPuts++
		s.mu.Unlock()
	}
	return s.Store.PutChunk(fp, data)
}

// TestRestoreVerifiesOnRead corrupts two of a chunk's three copies: the
// restoring rank's own copy and the copy of the peer its fetch asks
// first. The restore must fall over to the third copy, return the
// dumped bytes, and never persist the corrupt ones.
func TestRestoreVerifiesOnRead(t *testing.T) {
	const n, k, me = 6, 3, 0
	o := Options{K: k, Approach: CollDedup, ChunkSize: testPage, Name: "ck"}
	cluster, _, buffers := runDump(t, n, o)

	// A chunk of rank 0 that rank 0 stores and at least two peers hold.
	var target fingerprint.FP
	first := -1
	for _, ch := range chunk.NewFixed(testPage).Split(buffers[me]) {
		if ok, _ := cluster.Node(me).HasChunk(ch.FP); !ok {
			continue
		}
		var holders []int
		for d := 1; d < n; d++ {
			if ok, _ := cluster.Node((me + d) % n).HasChunk(ch.FP); ok {
				holders = append(holders, (me+d)%n)
			}
		}
		if len(holders) >= 2 {
			target, first = ch.FP, holders[0]
			break
		}
	}
	if first < 0 {
		t.Fatal("no chunk of rank 0 has two remote copies")
	}
	stores := make([]*corruptingStore, n)
	for r := range stores {
		stores[r] = &corruptingStore{Store: cluster.Node(r)}
	}
	stores[me].bad = map[fingerprint.FP]bool{target: true}
	stores[first].bad = map[fingerprint.FP]bool{target: true}

	var fetched int
	err := collectives.Run(n, func(c collectives.Comm) error {
		res, err := RestoreOutputCtx(context.Background(), c, stores[c.Rank()], "ck", nil)
		if err != nil {
			return err
		}
		if !bytes.Equal(res.Data, buffers[c.Rank()]) {
			return fmt.Errorf("rank %d restored wrong content", c.Rank())
		}
		if c.Rank() == me {
			fetched = res.Metrics.FetchedChunks
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stores[me].corruptRds == 0 || stores[first].corruptRds == 0 {
		t.Fatalf("corrupt copies never read (local %d, peer %d): the test missed its target",
			stores[me].corruptRds, stores[first].corruptRds)
	}
	if fetched == 0 {
		t.Error("rank 0 fetched nothing despite its corrupt local copy")
	}
	for r, s := range stores {
		if s.badPuts != 0 {
			t.Errorf("rank %d persisted %d chunks that do not match their fingerprint", r, s.badPuts)
		}
	}
}

// legacyChunks splits buf into test pages keyed by SHA-1, the function
// of checkpoints written before recipes named theirs.
func legacyChunks(buf []byte) ([]fingerprint.FP, [][]byte) {
	var fps []fingerprint.FP
	var data [][]byte
	for off := 0; off < len(buf); off += testPage {
		p := buf[off:min(off+testPage, len(buf))]
		fps = append(fps, fingerprint.SHA1.Of(p))
		data = append(data, p)
	}
	return fps, data
}

// legacyMetaBlob writes a RestoreMeta in the byte layout used before
// recipes named their fingerprint function:
//
//	u32 rank | u32 K | u32 n | n × (FP | u32 size) | u32 nHints | nHints × (FP | u16 n | ranks)
func legacyMetaBlob(rank, k int, fps []fingerprint.FP, data [][]byte, hints map[fingerprint.FP][]int32) []byte {
	blob := binary.BigEndian.AppendUint32(nil, uint32(rank))
	blob = binary.BigEndian.AppendUint32(blob, uint32(k))
	blob = binary.BigEndian.AppendUint32(blob, uint32(len(fps)))
	for i, fp := range fps {
		blob = append(blob, fp[:]...)
		blob = binary.BigEndian.AppendUint32(blob, uint32(len(data[i])))
	}
	var hinted []fingerprint.FP
	for fp := range hints {
		hinted = append(hinted, fp)
	}
	// Hint order does not matter to the decoder; sorted keeps the blob
	// reproducible.
	for i := 1; i < len(hinted); i++ {
		for j := i; j > 0 && hinted[j].Less(hinted[j-1]); j-- {
			hinted[j], hinted[j-1] = hinted[j-1], hinted[j]
		}
	}
	blob = binary.BigEndian.AppendUint32(blob, uint32(len(hinted)))
	for _, fp := range hinted {
		blob = append(blob, fp[:]...)
		blob = binary.BigEndian.AppendUint16(blob, uint16(len(hints[fp])))
		for _, r := range hints[fp] {
			blob = binary.BigEndian.AppendUint32(blob, uint32(r))
		}
	}
	return blob
}

// TestRestoreLegacyCheckpoint writes a checkpoint as the SHA-1 code
// would have left it — SHA-1-keyed chunks, metadata in the old layout,
// replicated to the next rank — loses one node, and restores every rank
// byte-identically through RestoreOutputCtx.
func TestRestoreLegacyCheckpoint(t *testing.T) {
	const n, k, lost = 4, 2, 2
	cluster := storage.NewCluster(n)
	buffers := make([][]byte, n)
	for r := 0; r < n; r++ {
		buffers[r] = testBuffer(r, 3, 0, 2, 3)
		fps, data := legacyChunks(buffers[r])
		hints := make(map[fingerprint.FP][]int32)
		for i, fp := range fps {
			if i < 3 && r > 1 {
				// Shared pages: stored on ranks 0 and 1 only.
				hints[fp] = []int32{0, 1}
				continue
			}
			for _, holder := range []int{r, (r + 1) % n} {
				if err := cluster.Node(holder).PutChunk(fp, data[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		meta := legacyMetaBlob(r, k, fps, data, hints)
		for _, holder := range []int{r, (r + 1) % n} {
			if err := cluster.Node(holder).PutBlob(metaName("old", r), meta); err != nil {
				t.Fatal(err)
			}
		}
	}
	cluster.FailNodes(lost)
	cluster.Replace(lost)
	runRestoreOutput(t, cluster, n, "old", buffers)

	// The replaced node re-persisted its metadata in the legacy layout.
	blob, err := cluster.Node(lost).GetBlob(metaName("old", lost))
	if err != nil {
		t.Fatal(err)
	}
	var m RestoreMeta
	if err := m.UnmarshalBinary(blob); err != nil || m.Recipe.Hash != fingerprint.SHA1 {
		t.Fatalf("re-persisted metadata: function %v, err %v", m.Recipe.Hash, err)
	}
}
