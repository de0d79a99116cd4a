package main

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand/v2"
	"os"
	"sort"
	"testing"
	"time"

	"dedupcr/internal/chunk"
	"dedupcr/internal/collectives"
	"dedupcr/internal/core"
	"dedupcr/internal/storage"
)

// runOps sets the workload up and measures a few ops after no warm-up.
func runOps(t *testing.T, name string, ops int, traced bool) outcome {
	t.Helper()
	f, err := workloads[name](7, t.TempDir())
	if err != nil {
		t.Fatalf("%s set-up: %v", name, err)
	}
	defer func() {
		if err := f.close(); err != nil {
			t.Errorf("%s close: %v", name, err)
		}
	}()
	b := &bench{f: f}
	o, err := b.measure(measureSpec{maxOps: ops, traced: traced})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if o.attempted != ops || o.failed != 0 || len(o.samples) != ops {
		t.Fatalf("%s traced=%v: attempted %d, failed %d, samples %d: %v", name, traced, o.attempted, o.failed, len(o.samples), o.failures)
	}
	return o
}

// TestTracingKeepsTraffic runs a few ops of every workload untraced and
// traced: the decorators must not change what the program sends or
// stores.
func TestTracingKeepsTraffic(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			const ops = 3
			plain := runOps(t, name, ops, false)
			traced := runOps(t, name, ops, true)
			for i := 0; i < ops; i++ {
				p, tr := plain.samples[i], traced.samples[i]
				if !sameWire(name, p.wire, tr.wire) || p.stored != tr.stored || p.logical != tr.logical {
					t.Errorf("op %d: untraced wire %d stored %d logical %d, traced wire %d stored %d logical %d",
						i, p.wire, p.stored, p.logical, tr.wire, tr.stored, tr.logical)
				}
				if p.wire == 0 || p.stored == 0 {
					t.Errorf("op %d: wire %d and stored %d bytes must both be positive", i, p.wire, p.stored)
				}
				tt := tr.trace
				if d := tt.phaseSumMs + tt.unattributedMs - tt.wallMs; d > 1e-9 || d < -1e-9 {
					t.Errorf("op %d: phase sum %v + unattributed %v != wall %v", i, tt.phaseSumMs, tt.unattributedMs, tt.wallMs)
				}
				if tt.phaseSumMs <= 0 {
					t.Errorf("op %d: no phase time attributed", i)
				}
			}
		})
	}
}

// sameWire compares the bytes two runs of an op sent. Dumps send exactly
// the same bytes every time. A restore does not: a peer asking a node
// that is re-provisioning itself gets the chunk or a miss depending on
// whether that node already fetched it, so even two untraced runs differ
// by about a percent. For the restore only a 5% difference is allowed.
func sameWire(workload string, a, b int64) bool {
	if workload != "hpccg-restore-loss" {
		return a == b
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return float64(d) <= 0.05*float64(a)
}

// cancelAt cancels its rank's context when the rank enters phase. It
// wraps the decorator the way the decorator wraps the transport, so an
// abort only reaches the transport through tracedComm.Base.
type cancelAt struct {
	*tracedComm
	phase  string
	cancel context.CancelFunc
}

func (c *cancelAt) Base() collectives.Comm { return c.tracedComm }

func (c *cancelAt) EnterPhase(p string) {
	c.tracedComm.EnterPhase(p)
	if p == c.phase {
		c.cancel()
	}
}

// TestCancelThroughDecorator cancels one rank's context mid-dump on
// decorated communicators: every rank must still fail with a
// *collectives.CollectiveError instead of hanging.
func TestCancelThroughDecorator(t *testing.T) {
	const n = 4
	comms, stop, err := inproc.group(n)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	cluster := storage.NewCluster(n)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	o := core.Options{K: 2, Approach: core.CollDedup, Chunker: chunk.Spec{Algo: chunk.AlgoFixed, Size: 256}}
	done := make(chan released, 1)
	go func() {
		done <- release(n, func(r int) error {
			buf := make([]byte, 256<<10)
			fill(buf, rand.New(rand.NewPCG(uint64(r), 0)))
			var c collectives.Comm = newTracedComm(comms[r])
			rctx := context.Background()
			if r == 0 {
				c = &cancelAt{tracedComm: c.(*tracedComm), phase: "reduction", cancel: cancel}
				rctx = ctx
			}
			_, err := core.DumpOutputCtx(rctx, c, cluster.Node(r), buf, o)
			return err
		})
	}()
	select {
	case rel := <-done:
		for r, err := range rel.errs {
			var ce *collectives.CollectiveError
			if !errors.As(err, &ce) {
				t.Errorf("rank %d: got %v, want a *collectives.CollectiveError", r, err)
			}
		}
	case <-time.After(30 * time.Second):
		t.Fatal("ranks still blocked 30s after rank 0 cancelled")
	}
}

// spec is the part of BENCHMARK.json that names the metrics.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestMetricsMatchSpec checks that the program emits exactly the metrics
// and workloads BENCHMARK.json declares, with the declared units.
func TestMetricsMatchSpec(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the program has %d", names, len(workloads))
	}
	for _, n := range names {
		if workloads[n] == nil {
			t.Errorf("BENCHMARK.json workload %q is unknown to the program", n)
		}
	}
	var rec record
	e2e, err := endToEnd(setupHPCCGDump, 1, t.TempDir(), time.Nanosecond, &rec)
	if err != nil {
		t.Fatal(err)
	}
	layer, err := perLayer(setupHPCCGDump, 1, t.TempDir(), 2*time.Nanosecond, &rec)
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got map[string]metric, want []struct{ Name, Unit string }) {
		t.Helper()
		seen := map[string]bool{}
		for _, w := range want {
			seen[w.Name] = true
			m, ok := got[w.Name]
			switch {
			case !ok:
				t.Errorf("%s metric %s is declared but not emitted", kind, w.Name)
			case m.Unit != w.Unit:
				t.Errorf("%s metric %s: unit %q, declared %q", kind, w.Name, m.Unit, w.Unit)
			}
		}
		var extra []string
		for k := range got {
			if !seen[k] {
				extra = append(extra, k)
			}
		}
		sort.Strings(extra)
		if len(extra) > 0 {
			t.Errorf("%s metrics emitted but not declared: %v", kind, extra)
		}
	}
	check("end-to-end", e2e.Metrics, s.EndToEnd)
	check("per-layer", layer.Metrics, s.PerLayer)
	if !e2e.Correct || !layer.Correct {
		t.Errorf("correct: end-to-end %v, per-layer %v", e2e.Correct, layer.Correct)
	}
}
