package hybrid

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"dedupcr/internal/collectives"
	"dedupcr/internal/metrics"
	"dedupcr/internal/storage"
)

// restoreAllOutput is restoreAll through the instrumented entry point,
// returning every rank's metrics.
func restoreAllOutput(t *testing.T, n int, cluster *storage.Cluster, buffers [][]byte, name string) []metrics.Restore {
	t.Helper()
	ms := make([]metrics.Restore, n)
	var mu sync.Mutex
	err := collectives.Run(n, func(c collectives.Comm) error {
		got, m, err := RestoreOutput(c, cluster.Node(c.Rank()), name, nil)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, buffers[c.Rank()]) {
			return fmt.Errorf("rank %d restore mismatch", c.Rank())
		}
		mu.Lock()
		ms[c.Rank()] = m
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// TestHybridRestoreMetrics pins the hybrid restore instrumentation: on a
// healthy cluster the accounting reconciles with nothing rebuilt; after
// a data-node loss the replaced node reports recovered (erasure-rebuilt)
// chunks and shard-recovery time, disjoint from assembly.
func TestHybridRestoreMetrics(t *testing.T) {
	const n, k, g = 12, 3, 4
	o := Options{K: k, Group: g, ChunkSize: testPage, Name: "hy"}
	cluster, _, buffers := runProtect(t, n, o)

	for r, m := range restoreAllOutput(t, n, cluster, buffers, "hy") {
		if m.LogicalBytes != int64(len(buffers[r])) {
			t.Errorf("rank %d: logical bytes %d, want %d", r, m.LogicalBytes, len(buffers[r]))
		}
		if m.LocalChunks+m.FetchedChunks != m.TotalChunks {
			t.Errorf("rank %d: %d local + %d fetched != %d total chunks",
				r, m.LocalChunks, m.FetchedChunks, m.TotalChunks)
		}
		if m.RecoveredChunks != 0 || m.Phases.Dur[metrics.ShardRecover] != 0 {
			t.Errorf("rank %d: healthy restore rebuilt %d chunks (%v recover time)",
				r, m.RecoveredChunks, m.Phases.Dur[metrics.ShardRecover])
		}
		if got := m.RunLengths.Sum(); got != int64(m.TotalChunks) {
			t.Errorf("rank %d: run lengths sum to %d, want %d", r, got, m.TotalChunks)
		}
	}

	cluster.FailNodes(4, 6)
	cluster.Replace(4)
	cluster.Replace(6)
	ms := restoreAllOutput(t, n, cluster, buffers, "hy")
	for _, r := range []int{4, 6} {
		m := ms[r]
		if m.RecoveredChunks == 0 {
			t.Errorf("replaced node %d: no erasure-rebuilt chunks recorded", r)
		}
		if m.Phases.Dur[metrics.ShardRecover] == 0 {
			t.Errorf("replaced node %d: no shard-recovery time attributed", r)
		}
		if m.MetaFetches != 1 {
			t.Errorf("replaced node %d: %d meta fetches, want 1", r, m.MetaFetches)
		}
		if m.SourceRanks == 0 || m.FetchedChunks == 0 {
			t.Errorf("replaced node %d: no peer traffic recorded (%d sources, %d fetched)",
				r, m.SourceRanks, m.FetchedChunks)
		}
	}
}
