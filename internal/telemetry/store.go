package telemetry

import (
	"fmt"
	"io"

	"dedupcr/internal/metrics"
)

// Cluster-wide view of the segment-store engines: every rank reports its
// local metrics.StoreStats after a dump (the zero value on non-segment
// engines), rank 0 reduces them. In-band like the dump and restore
// gathers — no out-of-band monitoring channel.

// ClusterStore is rank 0's reduced view of every rank's local store —
// the storage-plane sibling of ClusterDump and ClusterRestore.
type ClusterStore struct {
	// Kind discriminates the JSON encoding; always "store".
	Kind string
	// Ranks is the group size the stats were aggregated over.
	Ranks int
	// Total sums (and for Gen, maxes) every rank's snapshot.
	Total metrics.StoreStats
	// GarbageRatio is the cluster-wide tombstoned fraction of on-disk
	// payload; ReclaimRatio the cluster-wide reclaimed fraction of all
	// tombstoned bytes (1 when nothing was tombstoned).
	GarbageRatio float64
	ReclaimRatio float64
	// MaxGarbageRatio is the worst single rank's garbage fraction — the
	// node whose compactor is furthest behind.
	MaxGarbageRatio float64
	// GarbageImbalance is max/mean of per-rank garbage bytes; 0 when no
	// rank holds garbage.
	GarbageImbalance float64
	// PerRank has one snapshot per rank, indexed by rank.
	PerRank []metrics.StoreStats
}

// AggregateStore reduces per-rank store snapshots into a ClusterStore.
// Pure function shared by the in-band gather and the experiment harness;
// the slice may be in any rank order, every rank exactly once.
func AggregateStore(stats []metrics.StoreStats) (*ClusterStore, error) {
	byRank, err := rankSlots(stats, "store stats", func(s *metrics.StoreStats) int { return s.Rank })
	if err != nil {
		return nil, err
	}
	cs := &ClusterStore{Kind: "store", Ranks: len(stats), PerRank: make([]metrics.StoreStats, len(stats))}
	garbage := make([]int64, len(stats))
	for rank, s := range byRank {
		cs.PerRank[rank] = *s
		cs.Total.Add(*s)
		garbage[rank] = s.GarbageBytes
		if r := s.GarbageRatio(); r > cs.MaxGarbageRatio {
			cs.MaxGarbageRatio = r
		}
	}
	cs.GarbageRatio = cs.Total.GarbageRatio()
	cs.ReclaimRatio = cs.Total.ReclaimRatio()
	cs.GarbageImbalance = imbalance(garbage)
	return cs, nil
}

// WritePrometheus renders the cluster store view in Prometheus text
// exposition format, the dedupcr_cluster_store_* families.
func (cs *ClusterStore) WritePrometheus(w io.Writer) {
	scalar(w, "dedupcr_cluster_store_ranks", "Number of ranks aggregated into the cluster store view.", "%d", cs.Ranks)
	scalar(w, "dedupcr_cluster_store_segments", "Segments across all local stores (sealed plus active).", "%d", cs.Total.Segments)
	scalar(w, "dedupcr_cluster_store_live_bytes", "Live payload bytes across all local stores.", "%d", cs.Total.LiveBytes)
	scalar(w, "dedupcr_cluster_store_data_bytes", "On-disk payload bytes across all local stores, garbage included.", "%d", cs.Total.DataBytes)
	scalar(w, "dedupcr_cluster_store_garbage_bytes", "Tombstoned payload bytes awaiting compaction, cluster-wide.", "%d", cs.Total.GarbageBytes)
	scalar(w, "dedupcr_cluster_store_garbage_ratio", "Cluster-wide tombstoned fraction of on-disk payload.", "%.6f", cs.GarbageRatio)
	scalar(w, "dedupcr_cluster_store_max_garbage_ratio", "Worst single rank's garbage fraction.", "%.6f", cs.MaxGarbageRatio)
	scalar(w, "dedupcr_cluster_store_reclaim_ratio", "Reclaimed fraction of all tombstoned bytes, cluster-wide.", "%.6f", cs.ReclaimRatio)
	scalar(w, "dedupcr_cluster_store_garbage_imbalance", "Max/mean of per-rank garbage bytes (1.0 = even).", "%.6f", cs.GarbageImbalance)
	scalar(w, "dedupcr_cluster_store_compactions", "Compaction sweeps summed over ranks.", "%d", cs.Total.Compactions)
	scalar(w, "dedupcr_cluster_store_reclaimed_bytes", "Tombstoned bytes physically reclaimed, summed over ranks.", "%d", cs.Total.ReclaimedBytes)
	gauge(w, "dedupcr_cluster_store_rank_garbage_bytes", "Tombstoned payload bytes awaiting compaction on one rank.")
	for _, s := range cs.PerRank {
		fmt.Fprintf(w, "dedupcr_cluster_store_rank_garbage_bytes{rank=\"%d\"} %d\n", s.Rank, s.GarbageBytes)
	}
}

// WriteText renders the cluster store view as a compact report.
func (cs *ClusterStore) WriteText(w io.Writer) {
	fmt.Fprintf(w, "cluster store: %d ranks, %d segments (%d sealed)\n",
		cs.Ranks, cs.Total.Segments, cs.Total.SealedSegments)
	fmt.Fprintf(w, "bytes: live %s, on-disk %s, garbage %s (%.1f%% cluster, %.1f%% worst rank)\n",
		metrics.Bytes(cs.Total.LiveBytes), metrics.Bytes(cs.Total.DataBytes),
		metrics.Bytes(cs.Total.GarbageBytes), 100*cs.GarbageRatio, 100*cs.MaxGarbageRatio)
	fmt.Fprintf(w, "lifecycle: %d seals, %d commits, %d compactions (%d segments, reclaimed %s of %s tombstoned, %.1f%%)\n",
		cs.Total.Seals, cs.Total.Commits, cs.Total.Compactions, cs.Total.SegmentsCompacted,
		metrics.Bytes(cs.Total.ReclaimedBytes), metrics.Bytes(cs.Total.TombstonedBytes), 100*cs.ReclaimRatio)
	if cs.GarbageImbalance > 0 {
		fmt.Fprintf(w, "garbage imbalance (max/mean): %.3f\n", cs.GarbageImbalance)
	}
}
