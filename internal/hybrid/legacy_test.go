package hybrid

import (
	"encoding/binary"
	"testing"

	"dedupcr/internal/fingerprint"
	"dedupcr/internal/storage"
)

// legacyMetaBlob writes a hybrid meta in the byte layout used before
// recipes named their fingerprint function, SHA-1 fingerprints
// throughout and no hints:
//
//	u32 rank | u32 K | u32 group | u64 shardLen | u32 n | n × (FP | u32 size) |
//	u32 nShard | nShard × FP | u32 0
func legacyMetaBlob(rank, k, group int, fps []fingerprint.FP, sizes []int, shardFPs []fingerprint.FP, shardLen int) []byte {
	blob := binary.BigEndian.AppendUint32(nil, uint32(rank))
	blob = binary.BigEndian.AppendUint32(blob, uint32(k))
	blob = binary.BigEndian.AppendUint32(blob, uint32(group))
	blob = binary.BigEndian.AppendUint64(blob, uint64(shardLen))
	blob = binary.BigEndian.AppendUint32(blob, uint32(len(fps)))
	for i, fp := range fps {
		blob = append(blob, fp[:]...)
		blob = binary.BigEndian.AppendUint32(blob, uint32(sizes[i]))
	}
	blob = binary.BigEndian.AppendUint32(blob, uint32(len(shardFPs)))
	for _, fp := range shardFPs {
		blob = append(blob, fp[:]...)
	}
	return binary.BigEndian.AppendUint32(blob, 0)
}

// TestRestoreLegacyCheckpoint writes a hybrid checkpoint as the SHA-1
// code would have left it: every page but the last stored as a
// SHA-1-keyed chunk, the last page only in the rank's data shard, and
// the metadata in the old layout. The hybrid restore must verify both
// paths with SHA-1 and return every rank's bytes.
func TestRestoreLegacyCheckpoint(t *testing.T) {
	const n, k = 4, 2
	cluster := storage.NewCluster(n)
	buffers := make([][]byte, n)
	for r := 0; r < n; r++ {
		buffers[r] = testBuffer(r, 2, 1, 1, 2)
		var fps, shardFPs []fingerprint.FP
		var sizes []int
		var shard []byte
		for off := 0; off < len(buffers[r]); off += testPage {
			p := buffers[r][off : off+testPage]
			fp := fingerprint.SHA1.Of(p)
			fps, sizes = append(fps, fp), append(sizes, len(p))
			if off+testPage < len(buffers[r]) {
				if err := cluster.Node(r).PutChunk(fp, p); err != nil {
					t.Fatal(err)
				}
				continue
			}
			shard = binary.BigEndian.AppendUint32(shard, uint32(len(p)))
			shard = append(shard, p...)
			shardFPs = append(shardFPs, fp)
		}
		if err := cluster.Node(r).PutBlob(shardBlob("old", r), shard); err != nil {
			t.Fatal(err)
		}
		meta := legacyMetaBlob(r, k, n, fps, sizes, shardFPs, len(shard))
		if err := cluster.Node(r).PutBlob(metaBlob("old", r), meta); err != nil {
			t.Fatal(err)
		}
	}
	restoreAll(t, n, cluster, buffers, "old")
}
