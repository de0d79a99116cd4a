package telemetry

import (
	"fmt"
	"io"
)

// WritePrometheus emits the cluster dump in the Prometheus plain-text
// exposition format: the dedupcr_cluster_* families replicad's rank 0
// serves at /cluster/metrics. Unlike the per-rank dedupcr_* families,
// these are already reduced across the group, so one scrape of rank 0
// sees the whole cluster.
func (cd *ClusterDump) WritePrometheus(w io.Writer) {
	scalar(w, "dedupcr_cluster_ranks", "Number of ranks aggregated into the cluster dump.", "%d", cd.Ranks)

	writePromPhases(w, "dedupcr_cluster",
		"Cross-rank spread of one dump pipeline phase (stat: min/median/p95/max/mean).",
		"Rank with the maximum duration of one pipeline phase.", cd.Phases)

	scalar(w, "dedupcr_cluster_sent_bytes", "Replication bytes pushed to partners, summed over ranks.", "%d", cd.TotalSentBytes)
	scalar(w, "dedupcr_cluster_recv_bytes", "Replication bytes received from partners, summed over ranks.", "%d", cd.TotalRecvBytes)
	scalar(w, "dedupcr_cluster_stored_bytes", "Bytes committed to local stores, summed over ranks.", "%d", cd.TotalStoredBytes)
	scalar(w, "dedupcr_cluster_put_retries", "Window puts retried after transient transport failures, summed over ranks.", "%d", cd.TotalPutRetries)

	gauge(w, "dedupcr_cluster_rank_sent_bytes", "Replication bytes one rank pushed to partners.")
	for _, rs := range cd.PerRank {
		fmt.Fprintf(w, "dedupcr_cluster_rank_sent_bytes{rank=\"%d\"} %d\n", rs.Rank, rs.SentBytes)
	}
	gauge(w, "dedupcr_cluster_rank_recv_bytes", "Replication bytes one rank received from partners.")
	for _, rs := range cd.PerRank {
		fmt.Fprintf(w, "dedupcr_cluster_rank_recv_bytes{rank=\"%d\"} %d\n", rs.Rank, rs.RecvBytes)
	}
	gauge(w, "dedupcr_cluster_rank_stored_bytes", "Bytes one rank committed to its local store.")
	for _, rs := range cd.PerRank {
		fmt.Fprintf(w, "dedupcr_cluster_rank_stored_bytes{rank=\"%d\"} %d\n", rs.Rank, rs.StoredBytes)
	}
	gauge(w, "dedupcr_cluster_rank_total_seconds", "End-to-end dump time of one rank.")
	for _, rs := range cd.PerRank {
		fmt.Fprintf(w, "dedupcr_cluster_rank_total_seconds{rank=\"%d\"} %.9f\n", rs.Rank, rs.Total.Seconds())
	}

	scalar(w, "dedupcr_cluster_designation_imbalance", "Max/mean of per-rank stored bytes (1.0 = balanced designation).", "%.6f", cd.DesignationImbalance)
	scalar(w, "dedupcr_cluster_send_imbalance", "Max/mean of per-rank sent bytes (1.0 = balanced sends).", "%.6f", cd.SendImbalance)

	gauge(w, "dedupcr_cluster_clock_offset_seconds", "Estimated lag of one rank's wall clock behind the group's latest barrier-exit stamp.")
	for _, rs := range cd.PerRank {
		fmt.Fprintf(w, "dedupcr_cluster_clock_offset_seconds{rank=\"%d\"} %.9f\n", rs.Rank, rs.ClockOffset.Seconds())
	}
	scalar(w, "dedupcr_cluster_clock_spread_seconds", "Width of the barrier-exit stamp window: upper bound on pairwise clock-offset error.", "%.9f", cd.ClockSpread.Seconds())

	writePromStragglers(w, "dedupcr_cluster",
		"Number of flagged (rank, phase) straggler pairs.",
		"How far a flagged rank's phase time overshot the cluster median.", cd.Stragglers)
}

// WritePrometheus emits the cluster restore in the Prometheus plain-text
// exposition format: the dedupcr_cluster_restore_* families replicad's
// rank 0 serves at /restore/metrics — already reduced across the group,
// so one scrape of rank 0 sees the whole cluster's restore cost.
func (cr *ClusterRestore) WritePrometheus(w io.Writer) {
	scalar(w, "dedupcr_cluster_restore_ranks", "Number of ranks aggregated into the cluster restore.", "%d", cr.Ranks)

	writePromPhases(w, "dedupcr_cluster_restore",
		"Cross-rank spread of one restore pipeline phase (stat: min/median/p95/max/mean).",
		"Rank with the maximum duration of one restore phase.", cr.Phases)

	scalar(w, "dedupcr_cluster_restore_logical_bytes", "Bytes of the reassembled images, summed over ranks.", "%d", cr.TotalLogicalBytes)
	scalar(w, "dedupcr_cluster_restore_local_bytes", "Bytes served by local stores, summed over ranks.", "%d", cr.TotalLocalBytes)
	scalar(w, "dedupcr_cluster_restore_fetched_bytes", "Bytes pulled from peers, summed over ranks.", "%d", cr.TotalFetchedBytes)
	scalar(w, "dedupcr_cluster_restore_fetched_chunks", "Chunks pulled from peers, summed over ranks.", "%d", cr.TotalFetchedChunks)
	scalar(w, "dedupcr_cluster_restore_recovered_chunks", "Chunks rebuilt by erasure reconstruction, summed over ranks.", "%d", cr.TotalRecoveredChunks)
	scalar(w, "dedupcr_cluster_restore_fetch_requests", "Fetch RPCs issued, summed over ranks.", "%d", cr.TotalFetchRequests)
	scalar(w, "dedupcr_cluster_restore_fetch_misses", "Fetch RPCs answered not-found, summed over ranks.", "%d", cr.TotalFetchMisses)
	scalar(w, "dedupcr_cluster_restore_objects_touched", "Distinct local store objects read, summed over ranks.", "%d", cr.TotalObjectsTouched)

	scalar(w, "dedupcr_cluster_restore_read_amplification_bytes", "Cluster-wide bytes fetched from peers over logical image bytes.", "%.6f", cr.ReadAmplificationBytes)
	scalar(w, "dedupcr_cluster_restore_read_amplification_chunks", "Cluster-wide chunks fetched from peers over unique chunks.", "%.6f", cr.ReadAmplificationChunks)
	scalar(w, "dedupcr_cluster_restore_fetch_imbalance", "Max/mean of per-rank fetched bytes (1.0 = balanced fetch cost).", "%.6f", cr.FetchImbalance)
	scalar(w, "dedupcr_cluster_restore_serve_imbalance", "Max/mean of per-peer served bytes (1.0 = balanced serving load).", "%.6f", cr.ServeImbalance)
	scalar(w, "dedupcr_cluster_restore_max_source_ranks", "Largest per-rank distinct-source count.", "%d", cr.MaxSourceRanks)

	gauge(w, "dedupcr_cluster_restore_rank_fetched_bytes", "Bytes one rank pulled from peers.")
	for _, rs := range cr.PerRank {
		fmt.Fprintf(w, "dedupcr_cluster_restore_rank_fetched_bytes{rank=\"%d\"} %d\n", rs.Rank, rs.FetchedBytes)
	}
	gauge(w, "dedupcr_cluster_restore_rank_read_amplification_bytes", "One rank's byte read amplification.")
	for _, rs := range cr.PerRank {
		fmt.Fprintf(w, "dedupcr_cluster_restore_rank_read_amplification_bytes{rank=\"%d\"} %.6f\n", rs.Rank, rs.ReadAmpBytes)
	}
	gauge(w, "dedupcr_cluster_restore_rank_total_seconds", "End-to-end restore time of one rank.")
	for _, rs := range cr.PerRank {
		fmt.Fprintf(w, "dedupcr_cluster_restore_rank_total_seconds{rank=\"%d\"} %.9f\n", rs.Rank, rs.Total.Seconds())
	}

	if cr.RunLengths.Count > 0 {
		gauge(w, "dedupcr_cluster_restore_run_length_chunks", "Merged same-source run-length distribution (stat: p50/p90/p99/max/mean).")
		for _, s := range []struct {
			stat string
			v    float64
		}{
			{"p50", float64(cr.RunLengths.P50)}, {"p90", float64(cr.RunLengths.P90)},
			{"p99", float64(cr.RunLengths.P99)}, {"max", float64(cr.RunLengths.Max)},
			{"mean", cr.RunLengths.Mean},
		} {
			fmt.Fprintf(w, "dedupcr_cluster_restore_run_length_chunks{stat=%q} %.3f\n", s.stat, s.v)
		}
	}
	if cr.FetchLatency.Count > 0 {
		gauge(w, "dedupcr_cluster_restore_fetch_latency_seconds", "Merged per-RPC fetch latency (stat: p50/p90/p99/max/mean).")
		for _, s := range []struct {
			stat string
			v    float64
		}{
			{"p50", float64(cr.FetchLatency.P50) / 1e9}, {"p90", float64(cr.FetchLatency.P90) / 1e9},
			{"p99", float64(cr.FetchLatency.P99) / 1e9}, {"max", float64(cr.FetchLatency.Max) / 1e9},
			{"mean", cr.FetchLatency.Mean / 1e9},
		} {
			fmt.Fprintf(w, "dedupcr_cluster_restore_fetch_latency_seconds{stat=%q} %.9f\n", s.stat, s.v)
		}
	}

	scalar(w, "dedupcr_cluster_restore_clock_spread_seconds", "Width of the restore barrier-exit stamp window.", "%.9f", cr.ClockSpread.Seconds())

	writePromStragglers(w, "dedupcr_cluster_restore",
		"Number of flagged (rank, phase) restore straggler pairs.",
		"How far a flagged rank's restore phase time overshot the cluster median.", cr.Stragglers)
}

// gauge writes the HELP and TYPE header of one gauge family.
func gauge(w io.Writer, name, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
}

// scalar writes a gauge family with one unlabelled sample.
func scalar(w io.Writer, name, help, format string, v any) {
	gauge(w, name, help)
	fmt.Fprintf(w, "%s "+format+"\n", name, v)
}

// writePromPhases emits a cluster view's per-phase spread and
// slowest-rank families, prefix_phase_seconds and
// prefix_phase_slowest_rank.
func writePromPhases(w io.Writer, prefix, spreadHelp, slowestHelp string, phases []PhaseStat) {
	gauge(w, prefix+"_phase_seconds", spreadHelp)
	for _, ps := range phases {
		for _, s := range []struct {
			stat string
			v    float64
		}{
			{"min", ps.Min.Seconds()}, {"median", ps.Median.Seconds()},
			{"p95", ps.P95.Seconds()}, {"max", ps.Max.Seconds()},
			{"mean", ps.Mean.Seconds()},
		} {
			fmt.Fprintf(w, "%s_phase_seconds{phase=%q,stat=%q} %.9f\n", prefix, ps.Name, s.stat, s.v)
		}
	}
	gauge(w, prefix+"_phase_slowest_rank", slowestHelp)
	for _, ps := range phases {
		fmt.Fprintf(w, "%s_phase_slowest_rank{phase=%q} %d\n", prefix, ps.Name, ps.SlowestRank)
	}
}

// writePromStragglers emits a cluster view's straggler count and, when
// any rank was flagged, the per-(rank, phase) excess family.
func writePromStragglers(w io.Writer, prefix, countHelp, excessHelp string, ss []Straggler) {
	scalar(w, prefix+"_stragglers", countHelp, "%d", len(ss))
	if len(ss) == 0 {
		return
	}
	gauge(w, prefix+"_straggler_excess_seconds", excessHelp)
	for _, s := range ss {
		fmt.Fprintf(w, "%s_straggler_excess_seconds{rank=\"%d\",phase=%q} %.9f\n",
			prefix, s.Rank, s.Phase, s.Excess().Seconds())
	}
}
