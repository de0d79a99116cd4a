package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dedupcr/internal/collectives"
	"dedupcr/internal/fingerprint"
	"dedupcr/internal/storage"
)

// phases are the pipeline phases core publishes through
// collectives.NotePhase, in pipeline order: the dump's, then the
// restore's.
var phases = [...]string{
	"chunking", "fingerprint", "local-dedup", "reduction", "load-exchange", "planning",
	"window-open", "put", "window-wait", "commit", "barrier",
	"restore-meta", "assemble", "restore-commit", "restore-barrier",
}

const numPhases = len(phases)

// Phases that block in Recv, and phases that send to peers. The others
// never touch the transport, so their wait and byte figures would be
// structurally zero and are not reported.
var (
	waitPhases = []string{"reduction", "load-exchange", "window-wait", "commit", "barrier", "restore-meta", "assemble", "restore-barrier"}
	bytePhases = []string{"reduction", "load-exchange", "put", "commit", "barrier", "restore-meta", "assemble", "restore-barrier"}
)

func phaseIndex(name string) int {
	for i, p := range phases {
		if p == name {
			return i
		}
	}
	return -1
}

// fetchRequestTag is the tag the restore's fetch server (fetch class 0)
// blocks on between requests. Time there is the server idling, not the
// pipeline waiting for a peer, so tracedComm does not count it.
var fetchRequestTag = collectives.WildcardTag(0)

// tracedComm decorates one rank's communicator. It follows the phase
// boundaries core publishes (EnterPhase) and attributes to the current
// phase its wall time, the time blocked in Recv and the bytes sent to
// peers. It forwards Base so Abort and Kill still reach the transport,
// and SendDeadline so window puts keep their deadlines.
type tracedComm struct {
	base collectives.Comm

	// phase is the index of the current phase, -1 outside known phases.
	// Send and Recv read it from the fetch server's goroutine too.
	phase atomic.Int32
	wait  [numPhases]atomic.Int64 // nanoseconds blocked in Recv
	bytes [numPhases]atomic.Int64 // bytes sent to other ranks

	// since and ms belong to the pipeline goroutine (EnterPhase) and are
	// read by the harness only after the rank returned.
	since time.Time
	ms    [numPhases]time.Duration
}

var (
	_ collectives.Comm           = (*tracedComm)(nil)
	_ collectives.DeadlineSender = (*tracedComm)(nil)
)

func newTracedComm(base collectives.Comm) *tracedComm {
	t := &tracedComm{base: base}
	t.phase.Store(-1)
	return t
}

// reset clears the counters before an op.
func (t *tracedComm) reset() {
	t.phase.Store(-1)
	for i := range t.ms {
		t.ms[i] = 0
		t.wait[i].Store(0)
		t.bytes[i].Store(0)
	}
}

// finish closes the last phase at the instant the rank returned.
func (t *tracedComm) finish(end time.Time) {
	t.closePhase(end)
	t.phase.Store(-1)
}

func (t *tracedComm) closePhase(now time.Time) {
	if p := t.phase.Load(); p >= 0 {
		t.ms[p] += now.Sub(t.since)
	}
}

// Base returns the decorated communicator.
func (t *tracedComm) Base() collectives.Comm { return t.base }

// EnterPhase receives core's phase boundaries. Unknown phase names count
// as unattributed time.
func (t *tracedComm) EnterPhase(name string) {
	now := time.Now()
	t.closePhase(now)
	t.since = now
	t.phase.Store(int32(phaseIndex(name)))
}

func (t *tracedComm) Rank() int                { return t.base.Rank() }
func (t *tracedComm) Size() int                { return t.base.Size() }
func (t *tracedComm) NextSeq() uint32          { return t.base.NextSeq() }
func (t *tracedComm) Stats() collectives.Stats { return t.base.Stats() }
func (t *tracedComm) Close() error             { return t.base.Close() }
func (t *tracedComm) countSend(to, n int) {
	if p := t.phase.Load(); p >= 0 && to != t.base.Rank() {
		t.bytes[p].Add(int64(n))
	}
}

func (t *tracedComm) Send(to int, tag collectives.Tag, data []byte) error {
	t.countSend(to, len(data))
	return t.base.Send(to, tag, data)
}

// SendDeadline forwards to the base transport's deadline send when it
// has one, and otherwise sends without a deadline.
func (t *tracedComm) SendDeadline(to int, tag collectives.Tag, data []byte, deadline time.Time) error {
	t.countSend(to, len(data))
	if ds, ok := t.base.(collectives.DeadlineSender); ok {
		return ds.SendDeadline(to, tag, data, deadline)
	}
	return t.base.Send(to, tag, data)
}

func (t *tracedComm) Recv(from int, tag collectives.Tag) ([]byte, error) {
	if tag == fetchRequestTag {
		return t.base.Recv(from, tag)
	}
	p := t.phase.Load()
	start := time.Now()
	data, err := t.base.Recv(from, tag)
	if p >= 0 {
		t.wait[p].Add(int64(time.Since(start)))
	}
	return data, err
}

// tracedStore decorates one rank's store and times the calls core makes
// into it: chunk puts and gets (per call), blob puts and the checkpoint
// commit (busy time).
type tracedStore struct {
	inner storage.Store

	mu       sync.Mutex
	putNs    []int64 // guarded by mu: PutChunk latencies
	getNs    []int64 // guarded by mu: GetChunk latencies
	blobNs   int64   // guarded by mu: PutBlob busy time
	commitNs int64   // guarded by mu: Commit busy time
}

var _ storage.Store = (*tracedStore)(nil)

func newTracedStore(inner storage.Store) *tracedStore { return &tracedStore{inner: inner} }

// Inner returns the decorated store, so storage.Commit and the segment
// stats helpers can unwrap it.
func (s *tracedStore) Inner() storage.Store { return s.inner }

// Commit drives the decorated store's commit point, if it has one.
func (s *tracedStore) Commit() error {
	start := time.Now()
	err := storage.Commit(s.inner)
	s.mu.Lock()
	s.commitNs += int64(time.Since(start))
	s.mu.Unlock()
	return err
}

func (s *tracedStore) PutChunk(fp fingerprint.FP, data []byte) error {
	start := time.Now()
	err := s.inner.PutChunk(fp, data)
	d := int64(time.Since(start))
	s.mu.Lock()
	s.putNs = append(s.putNs, d)
	s.mu.Unlock()
	return err
}

func (s *tracedStore) GetChunk(fp fingerprint.FP) ([]byte, error) {
	start := time.Now()
	data, err := s.inner.GetChunk(fp)
	d := int64(time.Since(start))
	s.mu.Lock()
	s.getNs = append(s.getNs, d)
	s.mu.Unlock()
	return data, err
}

func (s *tracedStore) PutBlob(name string, data []byte) error {
	start := time.Now()
	err := s.inner.PutBlob(name, data)
	d := int64(time.Since(start))
	s.mu.Lock()
	s.blobNs += d
	s.mu.Unlock()
	return err
}

func (s *tracedStore) HasChunk(fp fingerprint.FP) (bool, error) { return s.inner.HasChunk(fp) }
func (s *tracedStore) ReleaseChunk(fp fingerprint.FP) error     { return s.inner.ReleaseChunk(fp) }
func (s *tracedStore) GetBlob(name string) ([]byte, error)      { return s.inner.GetBlob(name) }
func (s *tracedStore) Usage() (int64, int)                      { return s.inner.Usage() }
func (s *tracedStore) Fail()                                    { s.inner.Fail() }
func (s *tracedStore) Failed() bool                             { return s.inner.Failed() }

// opTrace is what the decorators saw during one op.
type opTrace struct {
	wallMs, phaseSumMs, unattributedMs float64
	phaseMs, waitMs                    [numPhases]float64 // slowest rank
	bytes                              [numPhases]float64 // all ranks
	putCalls, getCalls                 float64
	putUsP50, getUsP50                 float64
	putBusyMs, blobBusyMs, commitMs    float64
}

// collectTrace folds the decorators of every rank into one op's trace.
// The slowest rank is the one that returned last; its phase sum plus the
// unattributed remainder is the op's wall time by construction.
func collectTrace(wall time.Duration, slowest int, comms []*tracedComm, stores []*tracedStore) opTrace {
	var tr opTrace
	tr.wallMs = ms(wall)
	sc := comms[slowest]
	for p := 0; p < numPhases; p++ {
		tr.phaseMs[p] = ms(sc.ms[p])
		tr.phaseSumMs += tr.phaseMs[p]
		tr.waitMs[p] = ms(time.Duration(sc.wait[p].Load()))
		for _, c := range comms {
			tr.bytes[p] += float64(c.bytes[p].Load())
		}
	}
	tr.unattributedMs = tr.wallMs - tr.phaseSumMs
	var puts, gets []float64
	for _, s := range stores {
		s.mu.Lock()
		for _, d := range s.putNs {
			puts = append(puts, float64(d)/1e3)
			tr.putBusyMs += float64(d) / 1e6
		}
		for _, d := range s.getNs {
			gets = append(gets, float64(d)/1e3)
		}
		tr.blobBusyMs += float64(s.blobNs) / 1e6
		tr.commitMs += float64(s.commitNs) / 1e6
		s.mu.Unlock()
	}
	tr.putCalls, tr.getCalls = float64(len(puts)), float64(len(gets))
	tr.putUsP50, tr.getUsP50 = quantile(puts, 0.5), quantile(gets, 0.5)
	return tr
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
