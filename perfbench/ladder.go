package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"dedupcr/internal/chunk"
	"dedupcr/internal/collectives"
	"dedupcr/internal/fingerprint"
	"dedupcr/internal/storage"
)

// ladder holds the isolated layer measurements: each layer called
// directly on the workload's own inputs, without core in between.
type ladder struct {
	scanMBps       float64 // chunk: boundary scan of every input
	hashMBps       float64 // fingerprint: BatchOf over those chunks
	tableBuildMs   float64 // fingerprint: rank 0's leaf table
	mergeMs        float64 // fingerprint: one HMERGE step on two leaf tables
	mergeAllocs    float64
	allreduceMs    float64 // collectives: Allreduce of every rank's leaf
	barrierUs      float64
	putMBps        float64 // collectives: rank 0's records into rank 1's window
	appendCommitMs float64 // storage: rank 0's chunks into a fresh SegStore
}

// Every ladder figure is the median of at least ladderReps timed
// repetitions lasting ladderMin together, after one untimed warm-up.
const (
	ladderReps = 5
	ladderMin  = 200 * time.Millisecond
)

func timeReps(fn func() error) (time.Duration, error) {
	return timeOwn(func() (time.Duration, error) {
		start := time.Now()
		err := fn()
		return time.Since(start), err
	})
}

// timeOwn is timeReps for a repetition that times its own measured part.
func timeOwn(fn func() (time.Duration, error)) (time.Duration, error) {
	if _, err := fn(); err != nil {
		return 0, err
	}
	var ds []float64
	var total time.Duration
	for len(ds) < ladderReps || total < ladderMin {
		d, err := fn()
		if err != nil {
			return 0, err
		}
		total += d
		ds = append(ds, float64(d))
	}
	return time.Duration(quantile(ds, 0.5)), nil
}

// mergeTables is one HMERGE step as core's reduction runs it: decode both
// tables, merge, encode the result.
func mergeTables(acc, other []byte) ([]byte, error) {
	var a, b fingerprint.Table
	if err := a.UnmarshalBinary(acc); err != nil {
		return nil, err
	}
	if err := b.UnmarshalBinary(other); err != nil {
		return nil, err
	}
	a.Merge(&b)
	return a.MarshalBinary()
}

func mbps(bytes int64, d time.Duration) float64 { return float64(bytes) / 1e6 / d.Seconds() }

// runLadder measures every layer of the checkpoint path in isolation.
func runLadder(c *common, workdir string) (ladder, error) {
	var l ladder
	n := len(c.inputs)
	cc, err := chunk.New(c.opts.Chunker)
	if err != nil {
		return l, err
	}
	total := c.logicalBytes()

	d, err := timeReps(func() error {
		for _, in := range c.inputs {
			cc.Cuts(in)
		}
		return nil
	})
	if err != nil {
		return l, err
	}
	l.scanMBps = mbps(total, d)

	spans := make([][][]byte, n)
	dst := make([][]fingerprint.FP, n)
	for r, in := range c.inputs {
		prev := 0
		for _, cut := range cc.Cuts(in) {
			spans[r] = append(spans[r], in[prev:cut])
			prev = cut
		}
		dst[r] = make([]fingerprint.FP, len(spans[r]))
	}
	if d, err = timeReps(func() error {
		for r := range spans {
			fingerprint.BatchOf(dst[r], spans[r]...)
		}
		return nil
	}); err != nil {
		return l, err
	}
	l.hashMBps = mbps(total, d)

	if d, err = timeReps(func() error {
		fingerprint.Local(dst[0], 0, c.opts.F, c.opts.K)
		return nil
	}); err != nil {
		return l, err
	}
	l.tableBuildMs = ms(d)

	leaves := make([][]byte, n)
	for r := range leaves {
		if leaves[r], err = fingerprint.Local(dst[r], int32(r), c.opts.F, c.opts.K).MarshalBinary(); err != nil {
			return l, err
		}
	}
	merges := 0
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if d, err = timeReps(func() error {
		merges++
		_, err := mergeTables(leaves[0], leaves[1])
		return err
	}); err != nil {
		return l, err
	}
	runtime.ReadMemStats(&m1)
	l.mergeMs = ms(d)
	l.mergeAllocs = float64(m1.Mallocs-m0.Mallocs) / float64(merges)

	// Rank 0's distinct chunks: framed as window records for the put
	// figure, appended to a segment store for the storage figure.
	var mine []chunk.Chunk
	seen := make(map[fingerprint.FP]bool)
	for i, s := range spans[0] {
		if fp := dst[0][i]; !seen[fp] {
			seen[fp] = true
			mine = append(mine, chunk.Chunk{FP: fp, Data: s})
		}
	}
	if err := collectiveLadder(&l, c, leaves, mine); err != nil {
		return l, err
	}
	if d, err = timeOwn(func() (time.Duration, error) { return appendCommit(workdir, mine) }); err != nil {
		return l, err
	}
	l.appendCommitMs = ms(d)
	return l, nil
}

// collectiveLadder measures the collectives on a fresh group of the
// workload's transport and size.
func collectiveLadder(l *ladder, c *common, leaves [][]byte, mine []chunk.Chunk) error {
	n := len(c.inputs)
	comms, stop, err := c.tr.group(n)
	if err != nil {
		return err
	}
	defer stop()
	// all runs one body per rank and fails on the first rank error.
	all := func(body func(r int) error) func() error {
		return func() error {
			for _, err := range release(n, body).errs {
				if err != nil {
					return err
				}
			}
			return nil
		}
	}
	d, err := timeReps(all(func(r int) error {
		_, err := collectives.Allreduce(comms[r], leaves[r], mergeTables)
		return err
	}))
	if err != nil {
		return fmt.Errorf("ladder allreduce: %w", err)
	}
	l.allreduceMs = ms(d)

	const barriers = 100
	if d, err = timeReps(all(func(r int) error {
		for i := 0; i < barriers; i++ {
			if err := collectives.Barrier(comms[r]); err != nil {
				return err
			}
		}
		return nil
	})); err != nil {
		return fmt.Errorf("ladder barrier: %w", err)
	}
	l.barrierUs = float64(d) / 1e3 / barriers

	var records [][]byte
	var payload, size int64
	for _, ch := range mine {
		rec := binary.BigEndian.AppendUint32(nil, uint32(len(ch.Data)))
		records = append(records, append(rec, ch.Data...))
		payload += int64(len(ch.Data))
		size += int64(len(rec) + len(ch.Data))
	}
	if d, err = timeReps(all(func(r int) error {
		var want int64
		if r == 1 {
			want = size
		}
		win := collectives.OpenWindow(comms[r], want, comms[r].NextSeq())
		if r == 0 {
			var off int64
			for _, rec := range records {
				if err := win.Put(1, off, rec); err != nil {
					return err
				}
				off += int64(len(rec))
			}
		}
		_, err := win.Wait()
		return err
	})); err != nil {
		return fmt.Errorf("ladder window put: %w", err)
	}
	l.putMBps = mbps(payload, d)
	return nil
}

// appendCommit puts chunks into a fresh segment store configured like
// the checkpoint workload's, then commits it, and returns how long the
// puts and the commit took.
func appendCommit(workdir string, chunks []chunk.Chunk) (time.Duration, error) {
	dir, err := os.MkdirTemp(workdir, "ladder-seg-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	s, err := storage.NewSegStore(dir, storage.SegConfig{AutoCompact: true})
	if err != nil {
		return 0, err
	}
	defer s.Close()
	start := time.Now()
	for _, ch := range chunks {
		if err := s.PutChunk(ch.FP, ch.Data); err != nil {
			return 0, err
		}
	}
	err = s.Commit()
	return time.Since(start), err
}

// printLadder sets each ladder figure beside the traced stage it isolates
// and prints the part of the stage the ladder does not explain. Stages
// the workload does not run are left out.
func printLadder(w io.Writer, l ladder, pl map[string]float64, c *common) {
	n := float64(len(c.inputs))
	rankMs := func(mbps float64) float64 { return float64(c.logicalBytes()) / n / 1e6 / mbps * 1e3 }
	depth := rounds(len(c.inputs))
	row := func(phase, stage string, stageMs float64, what string, ladderMs float64) {
		if pl["core."+phase+".ms"] == 0 {
			return
		}
		fmt.Fprintf(w, "ladder %-28s %9.3f ms | %-56s %9.3f ms | remainder %9.3f ms\n",
			stage, stageMs, what, ladderMs, stageMs-ladderMs)
	}
	p := func(name string) float64 { return pl[name] }
	row("chunking", "core.chunking.ms", p("core.chunking.ms"), "rank bytes / chunk.scan_mb_per_s", rankMs(l.scanMBps))
	row("fingerprint", "core.fingerprint.ms", p("core.fingerprint.ms"), "rank bytes / fingerprint.hash_mb_per_s", rankMs(l.hashMBps))
	ownReduction := p("core.reduction.ms") - p("collectives.reduction.wait_ms")
	row("reduction", "core.reduction.ms - wait", ownReduction, "collectives.allreduce_ms", l.allreduceMs)
	row("reduction", "core.reduction.ms - wait", ownReduction,
		fmt.Sprintf("fingerprint.table_merge_ms x %d rounds", depth), l.mergeMs*float64(depth))
	row("put", "core.put.ms", p("core.put.ms"), "rank put bytes / collectives.put_mb_per_s", p("collectives.put.bytes")/n/1e6/l.putMBps*1e3)
	row("commit", "core.commit.ms", p("core.commit.ms"), "storage.append_commit_ms", l.appendCommitMs)
	row("barrier", "core.barrier.ms", p("core.barrier.ms"), "collectives.barrier_us", l.barrierUs/1e3)
	row("assemble", "core.assemble.ms - wait", p("core.assemble.ms")-p("collectives.assemble.wait_ms"),
		"rank get_chunk calls x us_p50 + bytes / hash_mb_per_s", p("storage.get_chunk.calls")/n*p("storage.get_chunk.us_p50")/1e3+rankMs(l.hashMBps))
	row("restore-barrier", "core.restore-barrier.ms", p("core.restore-barrier.ms"), "collectives.barrier_us", l.barrierUs/1e3)
	fmt.Fprintf(w, "ladder %-28s %9.3f ms | per op: slowest rank's phase sum + unattributed; medians %.3f ms and %.3f ms\n",
		"trace.op_ms_p50", p("trace.op_ms_p50"), p("core.phase_sum_ms"), p("core.unattributed_ms"))
}

// rounds is the depth of the binomial reduction tree over n ranks.
func rounds(n int) int {
	r := 0
	for 1<<r < n {
		r++
	}
	return r
}
