// Package telemetry is the cluster-wide observability plane of the
// collective dump pipeline: it gathers every rank's metrics.Dump to rank
// 0 over the group's own collectives (in-band, no side channel), reduces
// them into a ClusterDump — per-phase spread statistics, traffic totals,
// load-imbalance coefficients and straggler flags — merges per-rank
// traces onto one clock-aligned timeline, and exposes the result as a
// Prometheus exposition, a text table and Chrome trace JSON.
//
// Clock model: every rank stamps the wall-clock instant it leaves the
// dump's completion barrier (metrics.Dump.BarrierExit). A dissemination
// barrier releases all ranks within ceil(log2 N) message latencies of
// each other, so the spread of these stamps bounds the inter-node clock
// offsets to within that window — microseconds in-process, a network
// round trip across machines. Offsets are reported relative to the
// latest stamp; merged traces are aligned on the completion-barrier span
// instead, which carries the same bound on monotonic clocks.
package telemetry

import (
	"fmt"
	"io"
	"time"

	"dedupcr/internal/metrics"
)

// Options tunes cluster aggregation.
type Options struct {
	// StragglerFactor flags a rank for a phase when its phase time
	// exceeds this multiple of the cluster median. 0 selects
	// DefaultStragglerFactor; negative disables straggler detection.
	StragglerFactor float64
	// MinExcess suppresses straggler flags whose absolute excess over
	// the median is below this floor, so microsecond phases cannot tip a
	// rank into "straggler" on scheduling noise. 0 selects
	// DefaultMinExcess.
	MinExcess time.Duration
}

// Defaults for Options. The factor-2 threshold with a millisecond floor
// keeps ordinary in-process scheduling jitter out of the straggler list;
// deployments chasing tail latency can tighten both.
const (
	DefaultStragglerFactor = 2.0
	DefaultMinExcess       = time.Millisecond
)

func (o Options) normalized() Options {
	if o.StragglerFactor == 0 {
		o.StragglerFactor = DefaultStragglerFactor
	}
	if o.MinExcess == 0 {
		o.MinExcess = DefaultMinExcess
	}
	return o
}

// PhaseStat is the cross-rank spread of one pipeline phase.
type PhaseStat struct {
	// Name is the phase label (a phase-table name, or "total").
	Name string
	// Min/Median/P95/Max summarize the per-rank durations
	// (nearest-rank quantiles).
	Min, Median, P95, Max time.Duration
	// Mean is the arithmetic mean of the per-rank durations.
	Mean time.Duration
	// SlowestRank is the rank with the maximum duration (lowest rank
	// wins ties).
	SlowestRank int
}

// RankSummary is one rank's line in the cluster view.
type RankSummary struct {
	Rank int
	// SentBytes/RecvBytes are the rank's replication traffic.
	SentBytes, RecvBytes int64
	// StoredBytes is the rank's storage load (own + designated +
	// received), the designation-load proxy of the imbalance
	// coefficient.
	StoredBytes int64
	// Total is the rank's end-to-end dump time.
	Total time.Duration
	// ClockOffset estimates how far this rank's wall clock lags the
	// latest barrier-exit stamp in the group: add it to the rank's local
	// wall times to land on the common timeline. Zero when the rank had
	// no stamp.
	ClockOffset time.Duration
}

// Straggler records one flagged (rank, phase) pair: the rank's phase
// time exceeded StragglerFactor x the cluster median by at least
// MinExcess.
type Straggler struct {
	Rank     int
	Phase    string
	Duration time.Duration
	// Median is the cluster median the duration was compared against.
	Median time.Duration
}

// Excess is how far the straggler overshot the cluster median.
func (s Straggler) Excess() time.Duration { return s.Duration - s.Median }

// ClusterDump is rank 0's reduced view of one collective dump across the
// whole group.
type ClusterDump struct {
	// Ranks is the group size the dump was aggregated over.
	Ranks int
	// Phases holds one spread entry per dump phase (in phase-table
	// order) plus a final "total" entry.
	Phases []PhaseStat
	// TotalSentBytes/TotalRecvBytes sum replication traffic over ranks.
	TotalSentBytes, TotalRecvBytes int64
	// TotalStoredBytes sums storage load over ranks.
	TotalStoredBytes int64
	// TotalPutRetries sums window-put retries over ranks: nonzero means
	// the dump survived transient transport faults via its RetryPolicy.
	TotalPutRetries int64
	// PerRank has one summary per rank, indexed by rank.
	PerRank []RankSummary
	// DesignationImbalance is max/mean of per-rank stored bytes: 1.0 is
	// perfectly balanced designation, paper Figure 4 territory. 0 when
	// no rank stored anything.
	DesignationImbalance float64
	// SendImbalance is max/mean of per-rank sent bytes. 0 when no rank
	// sent anything.
	SendImbalance float64
	// Stragglers lists every flagged (rank, phase) pair, ordered by
	// phase pipeline position then rank.
	Stragglers []Straggler
	// ClockSpread is the width of the barrier-exit stamp window: an
	// upper bound on the pairwise clock offset error. Zero when fewer
	// than two ranks carried stamps.
	ClockSpread time.Duration
	// Options echoes the straggler thresholds the dump was reduced with.
	Options Options
}

// imbalance returns max/mean of v, or 0 when the mean is 0.
func imbalance(v []int64) float64 {
	m := metrics.Avg(v)
	if m == 0 {
		return 0
	}
	return float64(metrics.Max(v)) / m
}

// rankSlots orders per-rank records by rank, checking that every rank of
// [0, len(recs)) appears exactly once.
func rankSlots[T any](recs []T, what string, rank func(*T) int) ([]*T, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("telemetry: no %s records to aggregate", what)
	}
	out := make([]*T, len(recs))
	for i := range recs {
		r := rank(&recs[i])
		if r < 0 || r >= len(recs) {
			return nil, fmt.Errorf("telemetry: %s rank %d out of range [0,%d)", what, r, len(recs))
		}
		if out[r] != nil {
			return nil, fmt.Errorf("telemetry: duplicate %s for rank %d", what, r)
		}
		out[r] = &recs[i]
	}
	return out, nil
}

// clockOffsets estimates per-rank clock offsets from the barrier-exit
// stamps (indexed by rank): the latest stamp is the reference and each
// rank's offset is how far its stamp lags it (zero without a stamp).
// spread is the width of the stamp window, zero with fewer than two
// stamps.
func clockOffsets(exits []time.Time) (offsets []time.Duration, spread time.Duration) {
	var ref, earliest time.Time
	for _, t := range exits {
		if t.After(ref) {
			ref = t
		}
	}
	offsets = make([]time.Duration, len(exits))
	for r, t := range exits {
		if t.IsZero() {
			continue
		}
		offsets[r] = ref.Sub(t)
		if earliest.IsZero() || t.Before(earliest) {
			earliest = t
		}
	}
	if !earliest.IsZero() {
		spread = ref.Sub(earliest)
	}
	return offsets, spread
}

// reducePhases computes the cross-rank spread of every phase of kind, in
// table order, plus a final "total" entry (times is indexed by rank),
// and flags stragglers: a rank whose phase time exceeds StragglerFactor x
// the cluster median by at least MinExcess. Nested phases are never
// flagged, since the phase containing them already counts their time.
func reducePhases(kind metrics.PhaseKind, times []metrics.PhaseTimes, opts Options) ([]PhaseStat, []Straggler) {
	var stats []PhaseStat
	var stragglers []Straggler
	durs := make([]int64, len(times))
	for _, p := range kind.Phases() {
		for r, t := range times {
			durs[r] = int64(t.Dur[p])
		}
		ps := spread(p.String(), durs)
		stats = append(stats, ps)
		if p.Nested() || opts.StragglerFactor < 0 {
			continue
		}
		for r, v := range durs {
			d := time.Duration(v)
			if float64(d) > opts.StragglerFactor*float64(ps.Median) && d-ps.Median >= opts.MinExcess {
				stragglers = append(stragglers, Straggler{Rank: r, Phase: ps.Name, Duration: d, Median: ps.Median})
			}
		}
	}
	for r, t := range times {
		durs[r] = int64(t.Total)
	}
	return append(stats, spread("total", durs)), stragglers
}

// spread summarizes one phase's per-rank durations (indexed by rank).
func spread(name string, durs []int64) PhaseStat {
	ps := PhaseStat{
		Name:   name,
		Min:    time.Duration(metrics.Quantile(durs, 0)),
		Median: time.Duration(metrics.Quantile(durs, 0.5)),
		P95:    time.Duration(metrics.Quantile(durs, 0.95)),
		Max:    time.Duration(metrics.Max(durs)),
		Mean:   time.Duration(metrics.Avg(durs)),
	}
	for r, v := range durs {
		if time.Duration(v) == ps.Max {
			ps.SlowestRank = r
			break
		}
	}
	return ps
}

// Aggregate reduces per-rank dump metrics into a ClusterDump. It is a
// pure function: the in-band gather path (GatherCluster) and the
// experiment harness both call it, so simulated and live clusters report
// through identical code. The dumps slice may be in any rank order;
// every rank must appear exactly once.
func Aggregate(dumps []metrics.Dump, opts Options) (*ClusterDump, error) {
	byRank, err := rankSlots(dumps, "dump", func(d *metrics.Dump) int { return d.Rank })
	if err != nil {
		return nil, err
	}
	opts = opts.normalized()
	cd := &ClusterDump{Ranks: len(dumps), Options: opts}
	exits := make([]time.Time, len(byRank))
	times := make([]metrics.PhaseTimes, len(byRank))
	stored := make([]int64, len(byRank))
	sent := make([]int64, len(byRank))
	for r, d := range byRank {
		exits[r], times[r] = d.BarrierExit, d.Phases.PhaseTimes
		stored[r], sent[r] = d.StoredBytes, d.SentBytes
		cd.TotalSentBytes += d.SentBytes
		cd.TotalRecvBytes += d.RecvBytes
		cd.TotalStoredBytes += d.StoredBytes
		cd.TotalPutRetries += d.PutRetries
	}
	offsets, clockSpread := clockOffsets(exits)
	cd.ClockSpread = clockSpread
	cd.PerRank = make([]RankSummary, len(byRank))
	for r, d := range byRank {
		cd.PerRank[r] = RankSummary{
			Rank: r, SentBytes: d.SentBytes, RecvBytes: d.RecvBytes,
			StoredBytes: d.StoredBytes, Total: d.Phases.Total, ClockOffset: offsets[r],
		}
	}
	cd.DesignationImbalance = imbalance(stored)
	cd.SendImbalance = imbalance(sent)
	cd.Phases, cd.Stragglers = reducePhases(metrics.DumpPipeline, times, opts)
	return cd, nil
}

// stragglersFor returns the stragglers of one rank, in phase order.
func stragglersFor(ss []Straggler, rank int) []Straggler {
	var out []Straggler
	for _, s := range ss {
		if s.Rank == rank {
			out = append(out, s)
		}
	}
	return out
}

// phaseStat returns the spread entry for the named phase, or a zero
// PhaseStat when absent.
func phaseStat(phases []PhaseStat, name string) PhaseStat {
	for _, ps := range phases {
		if ps.Name == name {
			return ps
		}
	}
	return PhaseStat{}
}

// StragglersFor returns the flagged stragglers of one rank, in phase
// order.
func (cd *ClusterDump) StragglersFor(rank int) []Straggler { return stragglersFor(cd.Stragglers, rank) }

// Phase returns the spread entry for the named phase, or a zero
// PhaseStat when absent.
func (cd *ClusterDump) Phase(name string) PhaseStat { return phaseStat(cd.Phases, name) }

// writePhaseTable renders the phase-spread rows of the phases that ran
// on some rank, with a name column of the given width.
func writePhaseTable(w io.Writer, width int, phases []PhaseStat) {
	fmt.Fprintf(w, "%-*s %10s %10s %10s %10s %8s\n",
		width, "phase", "min", "median", "p95", "max", "slowest")
	for _, ps := range phases {
		if ps.Max == 0 {
			continue
		}
		fmt.Fprintf(w, "%-*s %10s %10s %10s %10s %8d\n",
			width, ps.Name, metrics.Duration(ps.Min), metrics.Duration(ps.Median),
			metrics.Duration(ps.P95), metrics.Duration(ps.Max), ps.SlowestRank)
	}
}

// writeStragglers renders the straggler list with its thresholds, phase
// names in a column of the given width.
func writeStragglers(w io.Writer, width int, ss []Straggler, o Options) {
	if len(ss) == 0 {
		fmt.Fprintf(w, "stragglers: none (factor %.2f, floor %s)\n",
			o.StragglerFactor, metrics.Duration(o.MinExcess))
		return
	}
	fmt.Fprintf(w, "stragglers (> %.2fx median, excess >= %s):\n",
		o.StragglerFactor, metrics.Duration(o.MinExcess))
	for _, s := range ss {
		fmt.Fprintf(w, "  rank %d %-*s %10s vs median %s (+%s)\n",
			s.Rank, width, s.Phase, metrics.Duration(s.Duration),
			metrics.Duration(s.Median), metrics.Duration(s.Excess()))
	}
}

// WriteText renders the cluster dump as the fixed-width table dedupstat
// and the experiment harness print: the phase-spread table, traffic and
// imbalance lines, clock spread and the straggler list.
func (cd *ClusterDump) WriteText(w io.Writer) {
	fmt.Fprintf(w, "cluster dump: %d ranks\n\n", cd.Ranks)
	writePhaseTable(w, 14, cd.Phases)
	fmt.Fprintf(w, "\ntraffic: sent %s, recv %s, stored %s\n",
		metrics.Bytes(cd.TotalSentBytes), metrics.Bytes(cd.TotalRecvBytes),
		metrics.Bytes(cd.TotalStoredBytes))
	fmt.Fprintf(w, "imbalance (max/mean): designation %.3f, send %.3f\n",
		cd.DesignationImbalance, cd.SendImbalance)
	fmt.Fprintf(w, "clock spread: %s\n", metrics.Duration(cd.ClockSpread))
	writeStragglers(w, 14, cd.Stragglers, cd.Options)
}
