package metrics

import (
	"fmt"
	"io"
	"time"
)

// Restore is the instrumentation of one rank for one collective restore —
// the read-side twin of Dump. Dedup trades write volume for read
// fragmentation: a restore of a heavily dedup'd checkpoint chases chunks
// scattered across designated ranks, and these counters make that cost
// measurable. Everything is measured, never estimated.
type Restore struct {
	Rank int
	// LogicalBytes is the byte size of the reassembled image — the
	// denominator of the read-amplification ratios.
	LogicalBytes int64
	// TotalChunks is the recipe length (duplicate occurrences included);
	// UniqueChunks counts distinct fingerprints in the recipe.
	TotalChunks  int
	UniqueChunks int
	// LocalChunks / LocalBytes count recipe lookups served by the local
	// store, one per occurrence: duplicates are re-read per position, so
	// these already include the dedup-induced re-read amplification.
	LocalChunks int
	LocalBytes  int64
	// FetchedChunks / FetchedBytes count chunks pulled from peers over
	// the fetch service (the network component of read amplification).
	FetchedChunks int
	FetchedBytes  int64
	// FetchRequests counts fetch RPCs issued, misses included;
	// FetchMisses counts "not found" replies (a miss means the hint path
	// failed and the sweep went one peer further).
	FetchRequests int64
	FetchMisses   int64
	// MetaFetches counts restore-metadata blobs that had to come from a
	// peer replica because the local copy was lost.
	MetaFetches int
	// RecoveredChunks counts chunks rebuilt by erasure reconstruction
	// instead of fetched whole (hybrid restores only).
	RecoveredChunks int
	// SourceRanks is the number of distinct peer ranks that served at
	// least one chunk — the rank-level scatter of this rank's image.
	SourceRanks int
	// ObjectsTouched counts distinct local store objects read: unique
	// chunks served locally plus metadata/GC blobs.
	ObjectsTouched int
	// PeerFetchChunks / PeerFetchBytes are this rank's row of the
	// per-peer fetch traffic matrix, indexed by peer rank (own slot 0).
	PeerFetchChunks []int64
	PeerFetchBytes  []int64
	// RunLengths is the sequential-locality histogram: walking the recipe
	// in order, a run is a maximal stretch of consecutive chunks served
	// by the same source (local store, or one particular peer). One
	// sample per run, in chunks. Heavily fragmented restores show many
	// short runs; LargestRun is the longest observed.
	RunLengths *Histogram
	LargestRun int64
	// Phases is the measured wall-clock decomposition of the restore over
	// the RestorePipeline phases. Fetch is nested in Assemble (a fetch
	// happens mid-assembly), so Sum leaves it out.
	Phases PhaseTimes
	// BarrierExit is the wall-clock instant this rank left the restore's
	// completion barrier (same clock-offset anchor as Dump.BarrierExit).
	BarrierExit time.Time
	// FetchLatency is the per-RPC remote fetch latency histogram
	// (nanoseconds); nil when nothing was fetched.
	FetchLatency *Histogram
	// StoreReadLatency is the local store read latency histogram
	// (nanoseconds) recorded through the read-side storage.Timed path.
	StoreReadLatency *Histogram
}

// ReadBytes is the total bytes read to reassemble the image: local store
// reads plus network fetches.
func (r Restore) ReadBytes() int64 { return r.LocalBytes + r.FetchedBytes }

// ReadAmplificationBytes is bytes fetched from peers / logical image
// bytes: the share of the image that had to travel over the network
// because dedup designated its chunks to other ranks. 0 is a fully local
// restore; 1.0 means every byte was fetched.
func (r Restore) ReadAmplificationBytes() float64 {
	if r.LogicalBytes == 0 {
		return 0
	}
	return float64(r.FetchedBytes) / float64(r.LogicalBytes)
}

// ReadAmplificationChunks is chunks fetched from peers / unique chunks
// in the recipe — the chunk-granular twin of ReadAmplificationBytes.
// It can exceed 1.0 when duplicate occurrences of a chunk are fetched
// before the re-provisioned copy lands locally.
func (r Restore) ReadAmplificationChunks() float64 {
	if r.UniqueChunks == 0 {
		return 0
	}
	return float64(r.FetchedChunks) / float64(r.UniqueChunks)
}

// RunTracker measures sequential locality during a recipe walk, which
// is sequential: note the source serving each chunk in recipe order (the
// local store, one particular peer, ...), then End. A run is a maximal
// stretch of consecutive chunks from one source; each finished run is
// recorded into the restore's RunLengths and LargestRun.
type RunTracker struct {
	R      *Restore
	source int
	run    int64
}

// Note counts the next chunk, served by source.
func (t *RunTracker) Note(source int) {
	if t.run > 0 && source != t.source {
		t.End()
	}
	t.source = source
	t.run++
}

// End closes the current run.
func (t *RunTracker) End() {
	if t.run > 0 {
		t.R.RunLengths.Record(t.run)
		t.R.LargestRun = max(t.R.LargestRun, t.run)
	}
	t.run = 0
}

// RunLengthBuckets is the explicit bucket ladder (run length in chunks)
// of the sequential-locality histogram exposition: powers of two up to
// 64Ki chunks. Fixed buckets keep the family aggregable across ranks.
var RunLengthBuckets = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536}

// WriteCountHistogram emits a histogram of dimensionless counts (run
// lengths, sizes) as a Prometheus histogram family over an explicit
// integer `le` ladder.
func WriteCountHistogram(w io.Writer, name, help, labels string, ladder []int64, h *Histogram) {
	writeHistogram(w, name, help, labels, h, len(ladder), func(i int) (string, int64) {
		return fmt.Sprint(ladder[i]), ladder[i]
	}, fmt.Sprint(h.Sum()))
}

// WritePrometheus emits the restore's counters, ratios, phase timings and
// latency/locality histograms as the dedupcr_restore_* families, labelled
// with the rank.
func (r Restore) WritePrometheus(w io.Writer) {
	rank := fmt.Sprintf(`rank="%d"`, r.Rank)
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s{%s} %d\n", name, help, name, name, rank, v)
	}
	gauge := func(name, help string, format string, args ...any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n"+format, append([]any{name, help, name}, args...)...)
	}
	counter("dedupcr_restore_logical_bytes_total", "Bytes of the reassembled image.", r.LogicalBytes)
	counter("dedupcr_restore_chunks_total", "Recipe chunk occurrences assembled.", int64(r.TotalChunks))
	counter("dedupcr_restore_unique_chunks_total", "Distinct fingerprints in the recipe.", int64(r.UniqueChunks))
	counter("dedupcr_restore_local_chunks_total", "Chunk reads served by the local store.", int64(r.LocalChunks))
	counter("dedupcr_restore_local_bytes_total", "Bytes served by the local store.", r.LocalBytes)
	counter("dedupcr_restore_fetched_chunks_total", "Chunks pulled from peers.", int64(r.FetchedChunks))
	counter("dedupcr_restore_fetched_bytes_total", "Bytes pulled from peers.", r.FetchedBytes)
	counter("dedupcr_restore_fetch_requests_total", "Fetch RPCs issued, misses included.", r.FetchRequests)
	counter("dedupcr_restore_fetch_misses_total", "Fetch RPCs answered not-found.", r.FetchMisses)
	counter("dedupcr_restore_meta_fetches_total", "Restore-metadata blobs recovered from peer replicas.", int64(r.MetaFetches))
	counter("dedupcr_restore_recovered_chunks_total", "Chunks rebuilt by erasure reconstruction.", int64(r.RecoveredChunks))
	counter("dedupcr_restore_source_ranks", "Distinct peer ranks that served at least one chunk.", int64(r.SourceRanks))
	counter("dedupcr_restore_objects_touched", "Distinct local store objects read (chunks + blobs).", int64(r.ObjectsTouched))
	counter("dedupcr_restore_largest_run_chunks", "Longest same-source sequential run in the recipe walk.", r.LargestRun)

	gauge("dedupcr_restore_read_amplification_bytes",
		"Bytes fetched from peers over logical image bytes.",
		"dedupcr_restore_read_amplification_bytes{%s} %.6f\n", rank, r.ReadAmplificationBytes())
	gauge("dedupcr_restore_read_amplification_chunks",
		"Chunks fetched from peers over unique chunks.",
		"dedupcr_restore_read_amplification_chunks{%s} %.6f\n", rank, r.ReadAmplificationChunks())

	writePhaseSeconds(w, "dedupcr_restore_phase_seconds", "Wall-clock time of one restore pipeline phase.",
		rank, RestorePipeline, r.Phases)

	if nonZero(r.PeerFetchBytes) {
		fmt.Fprintf(w, "# HELP dedupcr_restore_peer_fetched_bytes_total Bytes this rank fetched from one peer.\n")
		fmt.Fprintf(w, "# TYPE dedupcr_restore_peer_fetched_bytes_total counter\n")
		for peer, b := range r.PeerFetchBytes {
			if b != 0 {
				fmt.Fprintf(w, "dedupcr_restore_peer_fetched_bytes_total{%s,peer=\"%d\"} %d\n", rank, peer, b)
			}
		}
	}

	WriteCountHistogram(w, "dedupcr_restore_run_length_chunks",
		"Length (chunks) of maximal same-source sequential runs in the recipe walk.",
		rank, RunLengthBuckets, r.RunLengths)
	WriteLatencyHistogram(w, "dedupcr_restore_fetch_latency_seconds",
		"Per-RPC remote chunk/blob fetch latency.", rank, r.FetchLatency)
	WriteLatencyHistogram(w, "dedupcr_restore_store_read_latency_seconds",
		"Local store read latency during the restore.", rank, r.StoreReadLatency)
}

func nonZero(v []int64) bool {
	for _, x := range v {
		if x != 0 {
			return true
		}
	}
	return false
}
