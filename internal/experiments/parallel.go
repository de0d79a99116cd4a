package experiments

import (
	"fmt"
	"runtime"
	"time"

	"dedupcr/internal/core"
	"dedupcr/internal/metrics"
)

// AblationParallel is the hot-path parallelism ablation: the same HPCCG
// checkpoint dumped with Parallelism=1 (the serial reference) and with
// the full GOMAXPROCS worker budget, reporting the rank-mean wall time of
// the phases the worker pools accelerate — chunk hashing (with the
// local-dedup and leaf-table builds overlapped into it) and the partner
// puts — plus the speedup. It also verifies the determinism contract on
// every run: both settings must produce identical per-rank replication
// traffic and storage, or the table reports the violation instead of a
// speedup.
func AblationParallel(cfg Config) (*Table, error) {
	n := 16
	if cfg.Quick {
		n = 8
	}
	procs := runtime.GOMAXPROCS(0)
	w := HPCCG()

	serialCfg := cfg
	serialCfg.Parallelism = 1
	parCfg := cfg
	parCfg.Parallelism = procs

	serial, err := RunScenario(serialCfg, w, n, 3, core.CollDedup, true)
	if err != nil {
		return nil, err
	}
	parallel, err := RunScenario(parCfg, w, n, 3, core.CollDedup, true)
	if err != nil {
		return nil, err
	}

	mean := func(res *ScenarioResult) metrics.Phases {
		dumps := res.Dumps[len(res.Dumps)-1]
		var m metrics.Phases
		for _, d := range dumps {
			m.Add(d.Phases)
		}
		return m.Scale(1.0 / float64(len(dumps)))
	}
	sp, pp := mean(serial), mean(parallel)

	t := &Table{
		ID:     "parallel",
		Title:  fmt.Sprintf("Hot-path parallelism: serial vs %d workers (HPCCG, N=%d, K=3, chunker=%s, rank mean)", procs, n, cfg.Chunker),
		Header: []string{"phase", "parallelism=1", fmt.Sprintf("parallelism=%d", procs), "speedup"},
	}
	row := func(name string, s, p time.Duration) {
		speed := "n/a"
		if p > 0 {
			speed = fmt.Sprintf("%.2fx", float64(s)/float64(p))
		}
		t.Rows = append(t.Rows, []string{name, metrics.Duration(s), metrics.Duration(p), speed})
	}
	var hashS, hashP time.Duration
	for _, ph := range []metrics.Phase{metrics.Chunking, metrics.Fingerprint, metrics.LocalDedup} {
		row(ph.String(), sp.Dur[ph], pp.Dur[ph])
		hashS += sp.Dur[ph]
		hashP += pp.Dur[ph]
	}
	row("chunk+hash+dedup", hashS, hashP)
	row(metrics.Put.String(), sp.Dur[metrics.Put], pp.Dur[metrics.Put])
	row("total", sp.Total, pp.Total)

	// Determinism check: identical replication traffic and storage on
	// every rank, or the ablation is meaningless.
	identical := true
	sd, pd := serial.lastDumps(), parallel.lastDumps()
	for r := range sd {
		if sd[r].SentBytes != pd[r].SentBytes || sd[r].RecvBytes != pd[r].RecvBytes ||
			sd[r].StoredBytes != pd[r].StoredBytes || sd[r].UniqueContentBytes != pd[r].UniqueContentBytes {
			identical = false
			t.Notes = append(t.Notes, fmt.Sprintf(
				"DETERMINISM VIOLATION on rank %d: sent %d/%d recv %d/%d stored %d/%d (serial/parallel)",
				r, sd[r].SentBytes, pd[r].SentBytes, sd[r].RecvBytes, pd[r].RecvBytes,
				sd[r].StoredBytes, pd[r].StoredBytes))
		}
	}
	if identical {
		t.Notes = append(t.Notes, "outputs byte-identical across settings: same per-rank sent/recv/stored/unique bytes")
	}
	if procs == 1 {
		t.Notes = append(t.Notes, "GOMAXPROCS=1 on this host: both columns run serially; re-run on a multi-core node for the speedup")
	}
	t.Notes = append(t.Notes,
		"local-dedup and the reduction leaf-table build overlap the hash pool when parallel, so their cost folds into `fingerprint`",
		"wall time of the scaled mini-app run, not simulated Shamrock seconds")
	return t, nil
}
