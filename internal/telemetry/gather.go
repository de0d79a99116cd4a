package telemetry

import (
	"fmt"

	"dedupcr/internal/collectives"
	"dedupcr/internal/metrics"
	"dedupcr/internal/obs"
)

// gather is the one in-band gather of a per-rank record: every rank
// publishes the gather's own phase (so a failure here is not blamed on
// the pipeline phase before it), encodes its record with the telemetry
// codec and sends it to rank 0 over the group's own communicator — no
// out-of-band monitoring channel, matching the paper's in-band
// measurement setup. Rank 0 decodes every slot and checks that slot r
// carries rank r; the other ranks return nil.
func gather[T record](c collectives.Comm, phase metrics.Phase, rec T, rank func(*T) int) ([]T, error) {
	enc, err := encode(rec)
	if err != nil {
		return nil, fmt.Errorf("telemetry: rank %d encode for %s: %w", c.Rank(), phase, err)
	}
	collectives.NotePhase(c, phase.String())
	raw, err := collectives.Gather(c, 0, enc)
	if err != nil {
		return nil, fmt.Errorf("telemetry: rank %d %s gather: %w", c.Rank(), phase, err)
	}
	if c.Rank() != 0 {
		return nil, nil
	}
	out := make([]T, len(raw))
	for r, b := range raw {
		v, err := decode[T](b)
		if err != nil {
			return nil, fmt.Errorf("telemetry: %s: decode rank %d: %w", phase, r, err)
		}
		if got := rank(&v); got != r {
			return nil, fmt.Errorf("telemetry: %s slot %d carries rank %d", phase, r, got)
		}
		out[r] = v
	}
	return out, nil
}

// GatherCluster collects every rank's dump metrics at rank 0 and reduces
// them into a ClusterDump. It is a collective call: every rank must enter
// it with its own dump (SPMD, like the dump itself), and only rank 0
// receives a non-nil result. It runs after the dump's completion barrier
// under its own phase, dump-telemetry.
func GatherCluster(c collectives.Comm, d metrics.Dump, opts Options) (*ClusterDump, error) {
	dumps, err := gather(c, metrics.DumpTelemetry, d,
		func(d *metrics.Dump) int { return d.Rank })
	if dumps == nil {
		return nil, err
	}
	cd, err := Aggregate(dumps, opts)
	if err != nil {
		return nil, err
	}
	// Straggler flags go into the flight recorder on the aggregating
	// rank: a rank that is repeatedly flagged before a failure is
	// exactly what a post-mortem timeline should show.
	for _, st := range cd.Stragglers {
		obs.Logf(obs.KindStraggler, st.Rank, st.Phase, 0,
			"straggler: %s vs median %s", st.Duration, st.Median)
	}
	return cd, nil
}

// GatherClusterRestore collects every rank's restore metrics at rank 0
// and reduces them into a ClusterRestore. Collective like GatherCluster,
// under the restore-telemetry phase.
func GatherClusterRestore(c collectives.Comm, r metrics.Restore, opts Options) (*ClusterRestore, error) {
	rs, err := gather(c, metrics.RestoreTelemetry, r,
		func(r *metrics.Restore) int { return r.Rank })
	if rs == nil {
		return nil, err
	}
	return AggregateRestore(rs, opts)
}

// GatherClusterStore collects every rank's store snapshot at rank 0 and
// reduces them into a ClusterStore, under the store-telemetry phase.
// Collective like GatherCluster: every rank must enter it
// unconditionally — ranks on non-segment engines report the zero
// snapshot — and only rank 0 receives a non-nil result.
func GatherClusterStore(c collectives.Comm, s metrics.StoreStats) (*ClusterStore, error) {
	stats, err := gather(c, metrics.StoreTelemetry, s,
		func(s *metrics.StoreStats) int { return s.Rank })
	if stats == nil {
		return nil, err
	}
	return AggregateStore(stats)
}
