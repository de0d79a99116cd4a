package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"dedupcr/internal/collectives"
	"dedupcr/internal/storage"
)

// opTimeout aborts an op that hangs, so a deadlock fails the op instead
// of the whole run.
const opTimeout = time.Minute

// released is the outcome of running one body per rank.
type released struct {
	wall time.Duration // release until the last rank returned
	last int           // the rank that returned last
	ends []time.Time   // when each rank returned
	errs []error
}

// release starts one goroutine per rank, lets them all into body at once
// and waits for every one to return. Only the interval from the release
// to the last return is timed.
func release(n int, body func(r int) error) released {
	out := released{ends: make([]time.Time, n), errs: make([]error, n)}
	start := make(chan struct{})
	var ready, done sync.WaitGroup
	ready.Add(n)
	done.Add(n)
	for r := 0; r < n; r++ {
		go func() {
			defer done.Done()
			ready.Done()
			<-start
			out.errs[r] = body(r)
			out.ends[r] = time.Now()
		}()
	}
	ready.Wait()
	t0 := time.Now()
	close(start)
	done.Wait()
	for r, end := range out.ends {
		if d := end.Sub(t0); d > out.wall {
			out.wall, out.last = d, r
		}
	}
	return out
}

// sample is one measured op.
type sample struct {
	opMs         float64
	wire, stored int64 // bytes sent by all ranks; store usage added
	logical      int64 // logical dataset bytes of the op
	allocMiB     float64
	trace        *opTrace // traced runs only
}

// outcome is a measurement of one workload.
type outcome struct {
	attempted, failed int
	failures          []string // the first few failure causes
	samples           []sample // ops after the warm-up
}

func (o *outcome) opMs() []float64 {
	out := make([]float64, len(o.samples))
	for i, s := range o.samples {
		out[i] = s.opMs
	}
	return out
}

// bench runs ops of one fixture. op numbers continue across measure
// calls, so a workload's checkpoint names never repeat.
type bench struct {
	f  fixture
	op int
}

// measureSpec bounds a measurement: ops run until dur has passed (and at
// least warmup+1 ops ran) or maxOps ops ran. A zero dur runs maxOps ops.
type measureSpec struct {
	dur    time.Duration
	maxOps int
	warmup int
	traced bool
}

// measure runs ops in a closed loop: each op starts only after every rank
// returned from the previous one. Set-up of the op, a garbage collection
// and the checks run outside the timer.
func (b *bench) measure(spec measureSpec) (outcome, error) {
	var res outcome
	c := b.f.base()
	n := len(c.comms)
	var tcs []*tracedComm
	if spec.traced {
		for _, cm := range c.comms {
			tcs = append(tcs, newTracedComm(cm))
		}
	}
	deadline := time.Now().Add(spec.dur)
	for i := 0; i < spec.maxOps && (spec.dur == 0 || i <= spec.warmup || time.Now().Before(deadline)); i++ {
		op := b.op
		b.op++
		if err := b.f.prepare(op); err != nil {
			return res, fmt.Errorf("prepare op %d: %w", op, err)
		}
		comms := c.comms
		stores := make([]storage.Store, n)
		var tss []*tracedStore
		for r := range stores {
			stores[r] = b.f.store(r)
		}
		if spec.traced {
			comms = make([]collectives.Comm, n)
			for r := range comms {
				tcs[r].reset()
				comms[r] = tcs[r]
				tss = append(tss, newTracedStore(stores[r]))
			}
		}
		wire0, usage0 := sentBytes(c.comms), usage(stores)
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		rel := release(n, func(r int) error {
			ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
			defer cancel()
			s := stores[r]
			if spec.traced {
				s = tss[r]
			}
			return b.f.run(ctx, op, r, comms[r], s)
		})
		runtime.ReadMemStats(&m1)
		smp := sample{
			opMs:     ms(rel.wall),
			wire:     sentBytes(c.comms) - wire0,
			stored:   usage(stores) - usage0,
			logical:  c.logicalBytes(),
			allocMiB: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
		}
		if spec.traced {
			for r, tc := range tcs {
				tc.finish(rel.ends[r])
			}
			tr := collectTrace(rel.wall, rel.last, tcs, tss)
			smp.trace = &tr
		}
		res.attempted++
		var opErr error
		for r, err := range rel.errs {
			if err != nil {
				opErr = fmt.Errorf("op %d rank %d: %w", op, r, err)
				break
			}
		}
		poisoned := opErr != nil
		if opErr == nil {
			opErr = b.f.verify(op)
		}
		if opErr != nil {
			res.failed++
			if len(res.failures) < 5 {
				res.failures = append(res.failures, opErr.Error())
			}
			if poisoned {
				// An op error aborts the group, so no later op can run.
				break
			}
		}
		if i >= spec.warmup {
			res.samples = append(res.samples, smp)
		}
	}
	return res, nil
}

func sentBytes(comms []collectives.Comm) int64 {
	var n int64
	for _, c := range comms {
		n += c.Stats().BytesSent
	}
	return n
}

func usage(stores []storage.Store) int64 {
	var n int64
	for _, s := range stores {
		b, _ := s.Usage()
		n += b
	}
	return n
}
