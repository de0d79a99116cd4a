// Command perfbench is the repository benchmark: it runs collective
// checkpoint dumps and restores through core's public entry points on
// three workloads, checks every op, and prints the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run) as one JSON line.
//
//	go run . -workload hpccg-dump -seed 1 -seconds 20 -trace 0
//
// See README.md for the workloads, the metrics and what each layer
// metric is expected to move.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	// warmupOps are run and checked but not timed.
	warmupOps = 3
	// setupReps is how often the untraced run sets a workload up; setup_s
	// is the median.
	setupReps = 9
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the run's provenance and raw samples, printed as one line
// before the result so runs form a trajectory.
type record struct {
	Workload   string    `json:"workload"`
	Seed       uint64    `json:"seed"`
	Trace      int       `json:"trace"`
	Seconds    int       `json:"seconds"`
	Commit     string    `json:"commit"`
	GoVersion  string    `json:"go_version"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	NumCPU     int       `json:"nproc"`
	CPUModel   string    `json:"cpu_model"`
	SetupS     []float64 `json:"setup_s,omitempty"`
	Ops        int       `json:"ops"`
	OpMs       []float64 `json:"op_ms"`
	TracedOps  int       `json:"traced_ops,omitempty"`
	TracedOpMs []float64 `json:"traced_op_ms,omitempty"`
	Failures   []string  `json:"failures,omitempty"`
}

func main() {
	workload := flag.String("workload", "", "workload: hpccg-dump, ckpt-tcp-seg or hpccg-restore-loss")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "how long to measure")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	workdir := flag.String("workdir", ".bench_build", "directory for the segment stores (created if missing)")
	flag.Parse()
	setup, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rec := record{
		Workload: *workload, Seed: *seed, Trace: *traceFlag, Seconds: *seconds,
		Commit: commit(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), CPUModel: cpuModel(),
	}
	dur := time.Duration(*seconds) * time.Second
	var res result
	var err error
	if *traceFlag == 0 {
		res, err = endToEnd(setup, *seed, *workdir, dur, &rec)
	} else {
		res, err = perLayer(setup, *seed, *workdir, dur, &rec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out := bufio.NewWriter(os.Stdout)
	for _, f := range rec.Failures {
		fmt.Fprintln(out, "failure:", f)
	}
	printMetrics(out, res.Metrics)
	line, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(out, "record %s\n", line)
	if line, err = json.Marshal(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(out, "%s\n", line)
	if err := out.Flush(); err != nil {
		os.Exit(1)
	}
}

type setupFunc func(seed uint64, workdir string) (fixture, error)

// endToEnd sets the workload up setupReps times, keeps the last fixture
// and measures it untraced.
func endToEnd(setup setupFunc, seed uint64, workdir string, dur time.Duration, rec *record) (result, error) {
	var f fixture
	for i := 0; i < setupReps; i++ {
		if f != nil {
			if err := f.close(); err != nil {
				return result{}, err
			}
		}
		// Start each set-up from a collected heap, so it does not pay for
		// the garbage of the one before.
		runtime.GC()
		start := time.Now()
		var err error
		if f, err = setup(seed, workdir); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		rec.SetupS = append(rec.SetupS, time.Since(start).Seconds())
	}
	b := &bench{f: f}
	o, err := b.measure(measureSpec{dur: dur, maxOps: 1 << 30, warmup: warmupOps})
	err = errors.Join(err, f.close())
	if err != nil {
		return result{}, err
	}
	rec.Ops, rec.OpMs, rec.Failures = len(o.samples), o.opMs(), o.failures
	var wire, stored, logical int64
	var alloc []float64
	for _, s := range o.samples {
		wire += s.wire
		stored += s.stored
		logical += s.logical
		alloc = append(alloc, s.allocMiB)
	}
	if logical == 0 {
		return result{}, fmt.Errorf("no op completed: %v", o.failures)
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return result{}, err
	}
	return result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics: map[string]metric{
			"setup_s":                       {quantile(rec.SetupS, 0.5), "s"},
			"op_ms_p50":                     {quantile(rec.OpMs, 0.5), "ms"},
			"op_ms_p90":                     {windowedQuantile(rec.OpMs, 0.9), "ms"},
			"success_rate":                  {1 - float64(o.failed)/float64(o.attempted), "ratio"},
			"wire_bytes_per_logical_byte":   {float64(wire) / float64(logical), "B/B"},
			"stored_bytes_per_logical_byte": {float64(stored) / float64(logical), "B/B"},
			"alloc_mb_per_op":               {quantile(alloc, 0.5), "MiB"},
			"max_rss_mb":                    {float64(ru.Maxrss) / 1024, "MiB"},
		},
	}, nil
}

// p90Windows is how many consecutive windows of a run windowedQuantile
// splits the ops into.
const p90Windows = 5

// windowedQuantile is the median over p90Windows consecutive windows of
// the ops of each window's q-quantile. Contention from outside the
// benchmark comes in bursts of seconds on a shared host; a burst then
// moves one window's tail instead of the whole run's. Runs too short to
// fill every window with ten ops use the plain quantile.
func windowedQuantile(xs []float64, q float64) float64 {
	if len(xs) < 10*p90Windows {
		return quantile(xs, q)
	}
	per := make([]float64, p90Windows)
	for i := range per {
		per[i] = quantile(xs[i*len(xs)/p90Windows:(i+1)*len(xs)/p90Windows], q)
	}
	return quantile(per, 0.5)
}

// perLayer measures the workload untraced for half of dur and traced for
// the other half, then runs the layer ladder on the same inputs.
func perLayer(setup setupFunc, seed uint64, workdir string, dur time.Duration, rec *record) (result, error) {
	f, err := setup(seed, workdir)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	b := &bench{f: f}
	plain, err := b.measure(measureSpec{dur: dur / 2, maxOps: 1 << 30, warmup: warmupOps})
	var traced outcome
	if err == nil {
		traced, err = b.measure(measureSpec{dur: dur / 2, maxOps: 1 << 30, warmup: warmupOps, traced: true})
	}
	var l ladder
	if err == nil {
		l, err = runLadder(f.base(), workdir)
	}
	if err = errors.Join(err, f.close()); err != nil {
		return result{}, err
	}
	rec.Ops, rec.OpMs = len(plain.samples), plain.opMs()
	rec.TracedOps, rec.TracedOpMs = len(traced.samples), traced.opMs()
	rec.Failures = append(plain.failures, traced.failures...)
	if len(plain.samples) == 0 || len(traced.samples) == 0 {
		return result{}, fmt.Errorf("no op completed: %v", rec.Failures)
	}
	m, values := layerMetrics(traced, l)
	m["trace.overhead"] = metric{quantile(rec.TracedOpMs, 0.5)/quantile(rec.OpMs, 0.5) - 1, "ratio"}
	printLadder(os.Stdout, l, values, f.base())
	failed := plain.failed + traced.failed
	return result{
		Correct:   failed == 0,
		Attempted: plain.attempted + traced.attempted,
		Failed:    failed,
		Metrics:   m,
	}, nil
}

// layerMetrics turns the traced ops and the ladder into the per-layer
// metrics: per-op figures are medians over ops. It also returns the bare
// values by name for the ladder report.
func layerMetrics(o outcome, l ladder) (map[string]metric, map[string]float64) {
	m := make(map[string]metric)
	med := func(name, unit string, get func(*opTrace) float64) {
		xs := make([]float64, len(o.samples))
		for i, s := range o.samples {
			xs[i] = get(s.trace)
		}
		m[name] = metric{quantile(xs, 0.5), unit}
	}
	for p, name := range phases {
		med("core."+name+".ms", "ms", func(t *opTrace) float64 { return t.phaseMs[p] })
	}
	for _, name := range waitPhases {
		p := phaseIndex(name)
		med("collectives."+name+".wait_ms", "ms", func(t *opTrace) float64 { return t.waitMs[p] })
	}
	for _, name := range bytePhases {
		p := phaseIndex(name)
		med("collectives."+name+".bytes", "B", func(t *opTrace) float64 { return t.bytes[p] })
	}
	med("core.phase_sum_ms", "ms", func(t *opTrace) float64 { return t.phaseSumMs })
	med("core.unattributed_ms", "ms", func(t *opTrace) float64 { return t.unattributedMs })
	med("storage.put_chunk.calls", "count", func(t *opTrace) float64 { return t.putCalls })
	med("storage.put_chunk.us_p50", "us", func(t *opTrace) float64 { return t.putUsP50 })
	med("storage.put_chunk.busy_ms", "ms", func(t *opTrace) float64 { return t.putBusyMs })
	med("storage.get_chunk.calls", "count", func(t *opTrace) float64 { return t.getCalls })
	med("storage.get_chunk.us_p50", "us", func(t *opTrace) float64 { return t.getUsP50 })
	med("storage.put_blob.busy_ms", "ms", func(t *opTrace) float64 { return t.blobBusyMs })
	med("storage.commit.ms", "ms", func(t *opTrace) float64 { return t.commitMs })
	med("trace.op_ms_p50", "ms", func(t *opTrace) float64 { return t.wallMs })
	m["chunk.scan_mb_per_s"] = metric{l.scanMBps, "MB/s"}
	m["fingerprint.hash_mb_per_s"] = metric{l.hashMBps, "MB/s"}
	m["fingerprint.table_build_ms"] = metric{l.tableBuildMs, "ms"}
	m["fingerprint.table_merge_ms"] = metric{l.mergeMs, "ms"}
	m["fingerprint.table_merge_allocs"] = metric{l.mergeAllocs, "count"}
	m["collectives.allreduce_ms"] = metric{l.allreduceMs, "ms"}
	m["collectives.barrier_us"] = metric{l.barrierUs, "us"}
	m["collectives.put_mb_per_s"] = metric{l.putMBps, "MB/s"}
	m["storage.append_commit_ms"] = metric{l.appendCommitMs, "ms"}
	values := make(map[string]float64, len(m))
	for k, v := range m {
		values[k] = v.Value
	}
	return m, values
}

func printMetrics(w *bufio.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "metric %-40s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

// commit is the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
