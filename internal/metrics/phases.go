package metrics

import (
	"fmt"
	"time"
)

// Phase names one entry of the phase table: a pipeline phase of the
// collective dump, of the collective restore, or of a telemetry gather.
// It indexes PhaseTimes.Dur.
//
// The mapping to the paper's pipeline: Chunking+Fingerprint are the local
// hashing cost of Figure 3(b)/(c), Reduction is the HMERGE collective of
// Algorithm 1 (l. 1-3), LoadExchange the allgather of l. 4-10, Planning
// covers Algorithm 2 (shuffle) and Algorithm 3 (offsets), Put/WindowWait
// the single-sided window exchange, Commit the local store writes.
type Phase uint8

// The phase table, in pipeline order: the dump's phases, the restore's,
// then the in-band telemetry gathers.
const (
	// Chunking is the boundary scan (fixed-size or content-defined).
	Chunking Phase = iota
	// Fingerprint is hashing every chunk.
	Fingerprint
	// LocalDedup is the first-occurrence filter over fingerprints.
	LocalDedup
	// Reduction is the collective fingerprint reduction + broadcast
	// (coll-dedup only), including classification of every chunk.
	Reduction
	// LoadExchange covers the load-vector allgathers (both rounds).
	LoadExchange
	// Planning covers shuffle computation, replica-target refinement and
	// offset planning; for the no-dedup and local-dedup baselines it also
	// absorbs chunk classification (plain partner assignment).
	Planning
	// WindowOpen is the receive-window allocation.
	WindowOpen
	// Put is the cumulative time spent pushing chunks into partner
	// windows.
	Put
	// WindowWait is the drain of the own window until full.
	WindowWait
	// Commit covers local chunk stores, received-chunk commits, the GC
	// list and restore-metadata persistence.
	Commit
	// Barrier is the dump's completion barrier.
	Barrier
	// RestoreMeta is the restore-metadata load (local read or peer fetch).
	RestoreMeta
	// Assemble is the recipe walk: local reads, remote fetches and
	// re-provisioning writes.
	Assemble
	// Fetch is the cumulative time spent inside remote chunk/blob fetches
	// during assembly; nested in Assemble.
	Fetch
	// ShardRecover is erasure-coded shard reconstruction (hybrid restores
	// only).
	ShardRecover
	// RestoreCommit covers post-assembly persistence: the reclamation-list
	// update and metadata re-replication.
	RestoreCommit
	// RestoreBarrier is the restore's completion barrier (all ranks keep
	// serving fetches until everyone assembled).
	RestoreBarrier
	// DumpTelemetry, RestoreTelemetry and StoreTelemetry are the in-band
	// gathers of the per-rank records; they run after the record is
	// complete, so their durations are never part of one.
	DumpTelemetry
	RestoreTelemetry
	StoreTelemetry

	// NumPhases is the size of the phase table.
	NumPhases
)

// PhaseKind says which operation a phase belongs to.
type PhaseKind uint8

// Phase kinds.
const (
	DumpPipeline PhaseKind = iota
	RestorePipeline
	TelemetryGather
)

// phaseTable is the single description of every phase: its name (the
// trace span, flight-event, pprof-label and Prometheus label), its kind,
// whether it is nested inside another phase (and so left out of Sum), and
// whether it is a completion barrier (the clock-alignment anchor).
var phaseTable = [NumPhases]struct {
	name    string
	kind    PhaseKind
	nested  bool
	barrier bool
}{
	Chunking:         {name: "chunking"},
	Fingerprint:      {name: "fingerprint"},
	LocalDedup:       {name: "local-dedup"},
	Reduction:        {name: "reduction"},
	LoadExchange:     {name: "load-exchange"},
	Planning:         {name: "planning"},
	WindowOpen:       {name: "window-open"},
	Put:              {name: "put"},
	WindowWait:       {name: "window-wait"},
	Commit:           {name: "commit"},
	Barrier:          {name: "barrier", barrier: true},
	RestoreMeta:      {name: "restore-meta", kind: RestorePipeline},
	Assemble:         {name: "assemble", kind: RestorePipeline},
	Fetch:            {name: "fetch", kind: RestorePipeline, nested: true},
	ShardRecover:     {name: "shard-recover", kind: RestorePipeline},
	RestoreCommit:    {name: "restore-commit", kind: RestorePipeline},
	RestoreBarrier:   {name: "restore-barrier", kind: RestorePipeline, barrier: true},
	DumpTelemetry:    {name: "dump-telemetry", kind: TelemetryGather},
	RestoreTelemetry: {name: "restore-telemetry", kind: TelemetryGather},
	StoreTelemetry:   {name: "store-telemetry", kind: TelemetryGather},
}

// String returns the phase's table name.
func (p Phase) String() string { return phaseTable[p].name }

// Kind returns the operation the phase belongs to.
func (p Phase) Kind() PhaseKind { return phaseTable[p].kind }

// Nested reports whether the phase runs inside another phase, so its
// time is already counted there and left out of Sum.
func (p Phase) Nested() bool { return phaseTable[p].nested }

// IsBarrier reports whether the phase is a completion barrier, which
// every rank leaves within one dissemination sweep of the others.
func (p Phase) IsBarrier() bool { return phaseTable[p].barrier }

// PhaseByName looks a phase up by its table name.
func PhaseByName(name string) (Phase, bool) {
	for p := Phase(0); p < NumPhases; p++ {
		if phaseTable[p].name == name {
			return p, true
		}
	}
	return 0, false
}

// phasesOf lists each kind's phases in table order.
var phasesOf = func() (out [TelemetryGather + 1][]Phase) {
	for p := Phase(0); p < NumPhases; p++ {
		out[p.Kind()] = append(out[p.Kind()], p)
	}
	return out
}()

// Phases returns the kind's phases in table order.
func (k PhaseKind) Phases() []Phase { return phasesOf[k] }

// names lists the table names of ps.
func names(ps []Phase) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.String()
	}
	return out
}

// PhaseNames lists the dump phase labels in pipeline order, matching the
// span names recorded by internal/core and the rows of the phase tables.
var PhaseNames = names(DumpPipeline.Phases())

// RestorePhaseNames lists the restore phase labels in pipeline order,
// matching the span names recorded by internal/core and internal/hybrid.
var RestorePhaseNames = names(RestorePipeline.Phases())

// PhaseTimes is the measured wall-clock decomposition of one collective
// operation on one rank: one duration per phase-table entry plus the
// end-to-end total. Phases are measured with the monotonic clock around
// each phase, so the non-nested ones sum to (almost) Total; the small
// remainder is bookkeeping between phases.
type PhaseTimes struct {
	// Dur holds each phase's accumulated duration, indexed by Phase.
	// Phases of other operations stay zero.
	Dur [NumPhases]time.Duration
	// Total is the end-to-end duration of the operation on this rank.
	Total time.Duration
}

// Sum adds up the non-nested phases (excluding Total). For a correctly
// instrumented operation, Sum is within a few percent of Total.
func (t PhaseTimes) Sum() time.Duration {
	var s time.Duration
	for p, d := range t.Dur {
		if !Phase(p).Nested() {
			s += d
		}
	}
	return s
}

// Other returns the unattributed remainder Total - Sum (clamped at 0).
func (t PhaseTimes) Other() time.Duration {
	if o := t.Total - t.Sum(); o > 0 {
		return o
	}
	return 0
}

// Add accumulates u's durations into t phase-wise, for aggregating
// several operations of one run.
func (t *PhaseTimes) Add(u PhaseTimes) {
	for p, d := range u.Dur {
		t.Dur[p] += d
	}
	t.Total += u.Total
}

// Scale multiplies every duration by f, turning an Add-accumulated
// PhaseTimes into a mean.
func (t PhaseTimes) Scale(f float64) PhaseTimes {
	for p, d := range t.Dur {
		t.Dur[p] = time.Duration(float64(d) * f)
	}
	t.Total = time.Duration(float64(t.Total) * f)
	return t
}

// ByName returns the duration of the named phase, or 0 for a name
// outside the phase table.
func (t PhaseTimes) ByName(name string) time.Duration {
	if p, ok := PhaseByName(name); ok {
		return t.Dur[p]
	}
	return 0
}

// Phases is the phase decomposition of one collective dump on one rank:
// the table-indexed durations plus the dump's per-round and per-worker
// attributions.
type Phases struct {
	PhaseTimes
	// ReductionRoundTimes holds this rank's per-round durations of the
	// reduction tree, when the transport recorded them.
	ReductionRoundTimes []time.Duration
	// FingerprintWorkers holds the per-worker busy durations of the
	// parallel hashing pool (index = worker id); empty for serial dumps
	// (Parallelism = 1). The wall-clock cost stays in Fingerprint; these
	// attribute it to workers.
	FingerprintWorkers []time.Duration
	// PutWorkers holds the per-worker busy durations of the concurrent
	// partner-put phase (index = partner index - 1); empty for serial
	// dumps. The wall-clock cost stays in Put.
	PutWorkers []time.Duration
}

// Add accumulates q into p (round and worker times append).
func (p *Phases) Add(q Phases) {
	p.PhaseTimes.Add(q.PhaseTimes)
	p.ReductionRoundTimes = append(p.ReductionRoundTimes, q.ReductionRoundTimes...)
	p.FingerprintWorkers = append(p.FingerprintWorkers, q.FingerprintWorkers...)
	p.PutWorkers = append(p.PutWorkers, q.PutWorkers...)
}

// Scale multiplies every duration by f (per-round and per-worker
// attributions dropped), turning an Add-accumulated Phases into a mean.
func (p Phases) Scale(f float64) Phases {
	return Phases{PhaseTimes: p.PhaseTimes.Scale(f)}
}

// Duration renders d for tables: sub-millisecond values keep microsecond
// resolution, larger ones millisecond resolution.
func Duration(d time.Duration) string {
	switch {
	case d <= 0:
		return "0"
	case d < time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}
