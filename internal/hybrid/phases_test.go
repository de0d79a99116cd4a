package hybrid

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"dedupcr/internal/collectives"
	"dedupcr/internal/core"
	"dedupcr/internal/metrics"
	"dedupcr/internal/obs"
	"dedupcr/internal/storage"
	"dedupcr/internal/trace"
)

// phaseLog decorates a communicator and records the phases the pipeline
// publishes to the transport (collectives.NotePhase → EnterPhase).
type phaseLog struct {
	collectives.Comm
	entered []string
}

func (p *phaseLog) EnterPhase(name string) { p.entered = append(p.entered, name) }

// Base lets aborts and context watches reach the transport.
func (p *phaseLog) Base() collectives.Comm { return p.Comm }

// phaseSources runs op once per rank of an in-proc group and returns,
// per rank, the three phase sequences the pipeline leaves behind: the
// names of its phase spans, its KindPhase flight events and the phases
// its communicator was told to enter, plus the recorded phase times.
func phaseSources(t *testing.T, n int, op func(c collectives.Comm, rec *trace.Recorder) (metrics.PhaseTimes, error)) (spans, flight, entered [][]string, times []metrics.PhaseTimes) {
	t.Helper()
	prev := obs.SetDefault(obs.New(1 << 14))
	defer obs.SetDefault(prev)
	tr := trace.New()
	logs := make([]*phaseLog, n)
	times = make([]metrics.PhaseTimes, n)
	var mu sync.Mutex
	err := collectives.Run(n, func(c collectives.Comm) error {
		pl := &phaseLog{Comm: c}
		pt, err := op(pl, tr.Recorder(1, c.Rank(), fmt.Sprintf("rank %d", c.Rank())))
		mu.Lock()
		logs[c.Rank()], times[c.Rank()] = pl, pt
		mu.Unlock()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	spans, flight, entered = make([][]string, n), make([][]string, n), make([][]string, n)
	for _, e := range tr.Events() {
		if _, ok := metrics.PhaseByName(e.Name); ok {
			spans[e.Tid] = append(spans[e.Tid], e.Name)
		}
	}
	for _, e := range obs.Default().Events() {
		if e.Kind == obs.KindPhase {
			flight[e.Rank] = append(flight[e.Rank], e.Phase)
		}
	}
	for r, pl := range logs {
		entered[r] = pl.entered
	}
	return spans, flight, entered, times
}

// TestPhaseSourcesAgree checks that the single phase scope keeps every
// phase signal in step: for a dump, a plain restore and a hybrid restore
// (both restores with one replaced node), every rank's phase spans, flight events
// and entered phases are the same sequence of phase-table names of the
// operation's kind, and the phase times sum to no more than the total.
func TestPhaseSourcesAgree(t *testing.T) {
	const n, lost = 8, 1
	buffers := make([][]byte, n)
	for r := range buffers {
		buffers[r] = testBuffer(r, 6, 4, 3, 2+r%3)
	}
	dumpCluster := storage.NewCluster(n)
	hybridCluster, _, hybridBuffers := runProtect(t, n, Options{K: 3, Group: 4, ChunkSize: testPage, Name: "hy"})
	hybridCluster.Replace(lost)

	for _, tc := range []struct {
		name string
		kind metrics.PhaseKind
		op   func(c collectives.Comm, rec *trace.Recorder) (metrics.PhaseTimes, error)
	}{
		{"dump", metrics.DumpPipeline, func(c collectives.Comm, rec *trace.Recorder) (metrics.PhaseTimes, error) {
			o := core.Options{K: 3, Approach: core.CollDedup, ChunkSize: testPage, Name: "ck", Trace: rec}
			res, err := core.DumpOutput(c, dumpCluster.Node(c.Rank()), buffers[c.Rank()], o)
			if err != nil {
				return metrics.PhaseTimes{}, err
			}
			return res.Metrics.Phases.PhaseTimes, nil
		}},
		{"restore", metrics.RestorePipeline, func(c collectives.Comm, rec *trace.Recorder) (metrics.PhaseTimes, error) {
			res, err := core.RestoreOutputCtx(context.Background(), c, dumpCluster.Node(c.Rank()), "ck", rec)
			if err != nil {
				return metrics.PhaseTimes{}, err
			}
			if !bytes.Equal(res.Data, buffers[c.Rank()]) {
				return res.Metrics.Phases, fmt.Errorf("rank %d restore mismatch", c.Rank())
			}
			return res.Metrics.Phases, nil
		}},
		{"hybrid-restore", metrics.RestorePipeline, func(c collectives.Comm, rec *trace.Recorder) (metrics.PhaseTimes, error) {
			got, m, err := RestoreOutput(c, hybridCluster.Node(c.Rank()), "hy", rec)
			if err == nil && !bytes.Equal(got, hybridBuffers[c.Rank()]) {
				err = fmt.Errorf("rank %d hybrid restore mismatch", c.Rank())
			}
			return m.Phases, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spans, flight, entered, times := phaseSources(t, n, tc.op)
			for r := 0; r < n; r++ {
				if len(entered[r]) == 0 {
					t.Fatalf("rank %d entered no phase", r)
				}
				for _, name := range entered[r] {
					if p, ok := metrics.PhaseByName(name); !ok || p.Kind() != tc.kind {
						t.Errorf("rank %d entered %q, not a %s phase of the table", r, name, tc.name)
					}
				}
				if !reflect.DeepEqual(spans[r], entered[r]) {
					t.Errorf("rank %d: spans %v, entered %v", r, spans[r], entered[r])
				}
				if !reflect.DeepEqual(flight[r], entered[r]) {
					t.Errorf("rank %d: flight events %v, entered %v", r, flight[r], entered[r])
				}
				if times[r].Sum() > times[r].Total {
					t.Errorf("rank %d: phase sum %v exceeds total %v", r, times[r].Sum(), times[r].Total)
				}
			}
		})
		if tc.name == "dump" {
			// The plain restore runs with one node lost, so it fetches.
			dumpCluster.Replace(lost)
		}
	}
}
