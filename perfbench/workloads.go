package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"

	"dedupcr/internal/apps/hpccg"
	"dedupcr/internal/chunk"
	"dedupcr/internal/collectives"
	"dedupcr/internal/core"
	"dedupcr/internal/fingerprint"
	"dedupcr/internal/storage"
)

// fixture is one workload after set-up: inputs, group and stores, ready
// to run ops. Only run is timed; prepare and verify run outside the
// timer.
type fixture interface {
	// base exposes what the harness and the layer ladder share.
	base() *common
	// store returns rank r's store for the current op.
	store(r int) storage.Store
	// prepare readies op (fresh stores, new inputs) before it is timed.
	prepare(op int) error
	// run is rank r's part of op, on the communicator and store given
	// (decorated ones in a traced run).
	run(ctx context.Context, op, r int, c collectives.Comm, s storage.Store) error
	// verify checks op's outputs, then does any untimed housekeeping.
	verify(op int) error
	close() error
}

// common is the state every workload has.
type common struct {
	comms []collectives.Comm
	// inputs are the ranks' datasets of the current op.
	inputs [][]byte
	// opts are the dump options (for the restore workload, those of its
	// set-up dump).
	opts core.Options
	tr   transport
}

func (c *common) base() *common { return c }

func (c *common) logicalBytes() int64 {
	var n int64
	for _, in := range c.inputs {
		n += int64(len(in))
	}
	return n
}

// transport builds fresh communicator groups.
type transport int

const (
	inproc transport = iota
	tcp
)

// group starts n ranks of the transport; stop closes them.
func (t transport) group(n int) (comms []collectives.Comm, stop func(), err error) {
	if t == tcp {
		tc, err := collectives.StartLocalTCP(n)
		if err != nil {
			return nil, nil, err
		}
		comms = make([]collectives.Comm, n)
		for i, c := range tc {
			comms[i] = c
		}
		return comms, func() {
			for _, c := range tc {
				c.Close()
			}
		}, nil
	}
	g, err := collectives.NewGroup(n)
	if err != nil {
		return nil, nil, err
	}
	comms = make([]collectives.Comm, n)
	for i := range comms {
		if comms[i], err = g.Comm(i); err != nil {
			g.Close()
			return nil, nil, err
		}
	}
	return comms, func() { g.Close() }, nil
}

// workloads maps each name to its set-up. setup is what setup_s times.
var workloads = map[string]func(seed uint64, workdir string) (fixture, error){
	"hpccg-dump":         setupHPCCGDump,
	"ckpt-tcp-seg":       setupCkptTCPSeg,
	"hpccg-restore-loss": setupHPCCGRestore,
}

// The HPCCG workloads use the paper-scaled parameters of the repo's
// HPCCG experiment: 8 ranks, 16³ sub-blocks after 8 CG steps, K=3,
// 256-byte fixed chunks and F=2^11.
const (
	hpccgRanks = 8
	hpccgSteps = 8
	hpccgK     = 3
)

func hpccgOptions() core.Options {
	return core.Options{
		K:        hpccgK,
		Approach: core.CollDedup,
		F:        1 << 11,
		Chunker:  chunk.Spec{Algo: chunk.AlgoFixed, Size: 256},
		Name:     "hpccg",
	}
}

// hpccgImages builds the HPCCG checkpoint images of every rank; the seed
// permutes which rank dumps which image.
func hpccgImages(seed uint64) [][]byte {
	images := make([][]byte, hpccgRanks)
	for r := range images {
		s := hpccg.New(r, hpccgRanks, hpccg.Config{NX: 16, NY: 16, NZ: 16})
		for i := 0; i < hpccgSteps; i++ {
			s.Step()
		}
		images[r] = s.CheckpointImage()
	}
	rng := rand.New(rand.NewPCG(seed, 0))
	out := make([][]byte, hpccgRanks)
	for r, p := range rng.Perm(hpccgRanks) {
		out[r] = images[p]
	}
	return out
}

// inprocCommon sets up the in-process group of an HPCCG workload.
func inprocCommon(seed uint64) (common, func(), error) {
	comms, stop, err := inproc.group(hpccgRanks)
	if err != nil {
		return common{}, nil, err
	}
	return common{comms: comms, inputs: hpccgImages(seed), opts: hpccgOptions(), tr: inproc}, stop, nil
}

// dump is one rank's collective dump under options o.
func dump(ctx context.Context, c collectives.Comm, s storage.Store, buf []byte, o core.Options) error {
	_, err := core.DumpOutputCtx(ctx, c, s, buf, o)
	return err
}

// hpccgDump dumps the HPCCG images into a fresh in-memory cluster per op.
type hpccgDump struct {
	common
	stop    func()
	cluster *storage.Cluster
	// chunks are the distinct chunks of all inputs, computed on the first
	// verify (the inputs never change).
	chunks []fingerprint.FP
}

func setupHPCCGDump(seed uint64, _ string) (fixture, error) {
	c, stop, err := inprocCommon(seed)
	if err != nil {
		return nil, err
	}
	return &hpccgDump{common: c, stop: stop}, nil
}

func (f *hpccgDump) store(r int) storage.Store { return f.cluster.Node(r) }

func (f *hpccgDump) prepare(int) error {
	f.cluster = storage.NewCluster(hpccgRanks)
	return nil
}

func (f *hpccgDump) run(ctx context.Context, _, r int, c collectives.Comm, s storage.Store) error {
	return dump(ctx, c, s, f.inputs[r], f.opts)
}

func (f *hpccgDump) verify(int) error {
	if f.chunks == nil {
		f.chunks = distinctChunks(f.inputs, f.opts.Chunker)
	}
	return checkHolders(f.chunks, clusterStores(f.cluster), f.opts.K)
}

func (f *hpccgDump) close() error {
	f.stop()
	return nil
}

func clusterStores(c *storage.Cluster) []storage.Store {
	out := make([]storage.Store, c.Size())
	for r := range out {
		out[r] = c.Node(r)
	}
	return out
}

// distinctChunks chunks every input with spec, one goroutine per input,
// and returns the distinct fingerprints of all of them.
func distinctChunks(inputs [][]byte, spec chunk.Spec) []fingerprint.FP {
	cc, err := chunk.New(spec)
	if err != nil {
		panic(err) // the workloads only use registered, valid specs
	}
	per := make([][]chunk.Chunk, len(inputs))
	var wg sync.WaitGroup
	for i, in := range inputs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			per[i] = chunk.FromCuts(in, cc.Cuts(in))
		}()
	}
	wg.Wait()
	seen := make(map[fingerprint.FP]bool)
	var out []fingerprint.FP
	for _, chunks := range per {
		for _, ch := range chunks {
			if !seen[ch.FP] {
				seen[ch.FP] = true
				out = append(out, ch.FP)
			}
		}
	}
	return out
}

// checkHolders is the dump correctness check: every chunk must be held
// by at least min(K, N) distinct stores.
func checkHolders(fps []fingerprint.FP, stores []storage.Store, k int) error {
	want := min(k, len(stores))
	under := 0
	for _, fp := range fps {
		held := 0
		for _, s := range stores {
			ok, err := s.HasChunk(fp)
			if err != nil {
				return fmt.Errorf("check holders: %w", err)
			}
			if ok {
				held++
			}
		}
		if held < want {
			under++
		}
	}
	if under > 0 {
		return fmt.Errorf("%d of %d distinct chunks held by fewer than %d stores", under, len(fps), want)
	}
	return nil
}

// The checkpoint workload: 2 ranks over loopback TCP, each dumping 16 MiB
// per checkpoint into its own persistent segment store. The first half of
// every input is shared by both ranks and constant over checkpoints; the
// second half is private and new at every checkpoint.
const (
	ckptRanks  = 2
	ckptShared = 8 << 20
	ckptBytes  = 16 << 20
)

type ckptTCPSeg struct {
	common
	stop func()
	seed uint64
	dir  string
	segs []*storage.SegStore
}

func setupCkptTCPSeg(seed uint64, workdir string) (fixture, error) {
	dir, err := os.MkdirTemp(workdir, "ckpt-tcp-seg-")
	if err != nil {
		return nil, err
	}
	f := &ckptTCPSeg{seed: seed, dir: dir, stop: func() {}}
	f.opts = core.Options{
		K:        2,
		Approach: core.CollDedup,
		F:        core.DefaultF,
		Chunker:  chunk.Spec{Algo: chunk.AlgoGear, Size: 4096},
	}
	f.tr = tcp
	shared := make([]byte, ckptShared)
	fill(shared, rand.New(rand.NewPCG(seed, 1)))
	for r := 0; r < ckptRanks; r++ {
		in := make([]byte, ckptBytes)
		copy(in, shared)
		f.inputs = append(f.inputs, in)
		s, err := storage.NewSegStore(filepath.Join(dir, fmt.Sprintf("rank%d", r)), storage.SegConfig{AutoCompact: true})
		if err != nil {
			f.close()
			return nil, err
		}
		f.segs = append(f.segs, s)
	}
	comms, stop, err := tcp.group(ckptRanks)
	if err != nil {
		f.close()
		return nil, err
	}
	f.comms, f.stop = comms, stop
	return f, nil
}

// fill overwrites buf, whose length is a multiple of 8, with random bytes.
func fill(buf []byte, rng *rand.Rand) {
	for i := 0; i < len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], rng.Uint64())
	}
}

func ckptName(op int) string { return fmt.Sprintf("ckpt-%06d", op) }

func (f *ckptTCPSeg) store(r int) storage.Store { return f.segs[r] }

func (f *ckptTCPSeg) prepare(op int) error {
	var wg sync.WaitGroup
	for r, in := range f.inputs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fill(in[ckptShared:], rand.New(rand.NewPCG(f.seed, 2+uint64(op*ckptRanks+r))))
		}()
	}
	wg.Wait()
	return nil
}

func (f *ckptTCPSeg) run(ctx context.Context, op, r int, c collectives.Comm, s storage.Store) error {
	o := f.opts
	o.Name = ckptName(op)
	return dump(ctx, c, s, f.inputs[r], o)
}

// verify checks replication, then forgets the checkpoint before the
// previous one, so the stores hold two checkpoints and compaction runs.
func (f *ckptTCPSeg) verify(op int) error {
	stores := make([]storage.Store, len(f.segs))
	for r, s := range f.segs {
		stores[r] = s
	}
	err := checkHolders(distinctChunks(f.inputs, f.opts.Chunker), stores, f.opts.K)
	if op >= 2 {
		for r, s := range f.segs {
			if ferr := core.Forget(s, ckptName(op-2), r); ferr != nil && err == nil {
				err = fmt.Errorf("forget %s: %w", ckptName(op-2), ferr)
			}
		}
	}
	return err
}

func (f *ckptTCPSeg) close() error {
	f.stop()
	var err error
	for _, s := range f.segs {
		if cerr := s.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if rerr := os.RemoveAll(f.dir); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// hpccgRestore restores the HPCCG dataset after losing K-1 nodes. The
// dataset is dumped once during set-up while a recorder logs every store
// mutation; before each op the log is replayed into a fresh cluster, so
// every op starts from the dumped state, and the K-1 ranks drawn from the
// seed get blank stores.
type hpccgRestore struct {
	common
	stop     func()
	seed     uint64
	logs     [][]storeOp
	cluster  *storage.Cluster
	restored [][]byte
}

func setupHPCCGRestore(seed uint64, _ string) (fixture, error) {
	c, stop, err := inprocCommon(seed)
	if err != nil {
		return nil, err
	}
	f := &hpccgRestore{common: c, stop: stop, seed: seed, restored: make([][]byte, hpccgRanks)}
	recs := make([]*recorder, hpccgRanks)
	cluster := storage.NewCluster(hpccgRanks)
	for r := range recs {
		recs[r] = &recorder{Store: cluster.Node(r)}
	}
	rel := release(hpccgRanks, func(r int) error {
		return dump(context.Background(), f.comms[r], recs[r], f.inputs[r], f.opts)
	})
	for r, err := range rel.errs {
		if err != nil {
			stop()
			return nil, fmt.Errorf("set-up dump rank %d: %w", r, err)
		}
	}
	for _, rec := range recs {
		f.logs = append(f.logs, rec.ops)
	}
	return f, nil
}

func (f *hpccgRestore) store(r int) storage.Store { return f.cluster.Node(r) }

func (f *hpccgRestore) prepare(op int) error {
	f.cluster = storage.NewCluster(hpccgRanks)
	for r, log := range f.logs {
		if err := replay(f.cluster.Node(r), log); err != nil {
			return fmt.Errorf("replay rank %d: %w", r, err)
		}
	}
	rng := rand.New(rand.NewPCG(f.seed, 1<<32+uint64(op)))
	for _, v := range rng.Perm(hpccgRanks)[:hpccgK-1] {
		f.cluster.Replace(v)
	}
	return nil
}

func (f *hpccgRestore) run(ctx context.Context, _, r int, c collectives.Comm, s storage.Store) error {
	res, err := core.RestoreOutputCtx(ctx, c, s, f.opts.Name, nil)
	if err != nil {
		return err
	}
	f.restored[r] = res.Data
	return nil
}

func (f *hpccgRestore) verify(int) error {
	for r, got := range f.restored {
		if !bytes.Equal(got, f.inputs[r]) {
			return fmt.Errorf("rank %d restored %d bytes that differ from the %d dumped", r, len(got), len(f.inputs[r]))
		}
	}
	clear(f.restored)
	return nil
}

func (f *hpccgRestore) close() error {
	f.stop()
	return nil
}

// storeOp is one logged store mutation.
type storeOp struct {
	release bool
	fp      fingerprint.FP
	blob    string // non-empty for PutBlob
	data    []byte
}

// recorder logs the mutations made through it, copying the data, as the
// Store contract lets callers reuse their buffers.
type recorder struct {
	storage.Store
	ops []storeOp
}

func (r *recorder) PutChunk(fp fingerprint.FP, data []byte) error {
	r.ops = append(r.ops, storeOp{fp: fp, data: bytes.Clone(data)})
	return r.Store.PutChunk(fp, data)
}

func (r *recorder) ReleaseChunk(fp fingerprint.FP) error {
	r.ops = append(r.ops, storeOp{release: true, fp: fp})
	return r.Store.ReleaseChunk(fp)
}

func (r *recorder) PutBlob(name string, data []byte) error {
	r.ops = append(r.ops, storeOp{blob: name, data: bytes.Clone(data)})
	return r.Store.PutBlob(name, data)
}

func replay(s storage.Store, log []storeOp) error {
	for _, op := range log {
		var err error
		switch {
		case op.release:
			err = s.ReleaseChunk(op.fp)
		case op.blob != "":
			err = s.PutBlob(op.blob, op.data)
		default:
			err = s.PutChunk(op.fp, op.data)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
