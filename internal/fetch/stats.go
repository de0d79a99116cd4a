package fetch

import (
	"fmt"
	"sync"
	"time"

	"dedupcr/internal/collectives"
	"dedupcr/internal/fingerprint"
	"dedupcr/internal/metrics"
	"dedupcr/internal/storage"
)

// Stats is an instrumented fetch client: it wraps the package-level Blob
// and Chunk calls and records per-RPC latency, per-peer traffic and
// miss counts — the raw material of restore read-amplification and
// fetch-imbalance reporting. A nil *Stats is valid and records nothing,
// so instrumented call sites never branch on "is instrumentation on".
//
// All methods are safe for concurrent use; the fetch protocol itself is
// one-outstanding-request-per-rank, but hybrid shard recovery may fetch
// from a helper goroutine while counters are read.
type Stats struct {
	mu         sync.Mutex
	latency    *metrics.Histogram
	peerChunks []int64 // indexed by peer rank
	peerBytes  []int64
	requests   int64
	misses     int64
}

// NewStats creates an instrumented fetch client for a communicator of n
// ranks.
func NewStats(n int) *Stats {
	return &Stats{
		latency:    metrics.NewHistogram(),
		peerChunks: make([]int64, n),
		peerBytes:  make([]int64, n),
	}
}

func (s *Stats) record(peer int, data []byte, found bool, elapsed time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.requests++
	s.latency.Record(int64(elapsed))
	if !found {
		s.misses++
		return
	}
	if peer >= 0 && peer < len(s.peerChunks) {
		s.peerChunks[peer]++
		s.peerBytes[peer] += int64(len(data))
	}
}

// Chunk fetches a chunk by fingerprint from peer, recording the RPC.
func (s *Stats) Chunk(c collectives.Comm, class Class, peer int, fp fingerprint.FP) ([]byte, bool, error) {
	start := time.Now()
	data, found, err := Chunk(c, class, peer, fp)
	if err == nil {
		s.record(peer, data, found, time.Since(start))
	}
	return data, found, err
}

// Blob fetches a named blob from peer, recording the RPC. Blob payloads
// count toward per-peer traffic like chunks do (the restore-metadata
// sweep is real network load).
func (s *Stats) Blob(c collectives.Comm, class Class, peer int, name string) ([]byte, bool, error) {
	start := time.Now()
	data, found, err := Blob(c, class, peer, name)
	if err == nil {
		s.record(peer, data, found, time.Since(start))
	}
	return data, found, err
}

// NeighbourBlob returns the named blob from the local store or, when it
// was lost, from the first peer holding a replica, sweeping outward from
// the next rank. fetched reports whether it came from a peer.
func (s *Stats) NeighbourBlob(c collectives.Comm, class Class, store storage.Store, name string) (blob []byte, fetched bool, err error) {
	if blob, err := store.GetBlob(name); err == nil {
		return blob, false, nil
	}
	me, n := c.Rank(), c.Size()
	for d := 1; d < n; d++ {
		data, ok, err := s.Blob(c, class, (me+d)%n, name)
		if err != nil || ok {
			return data, ok, err
		}
	}
	return nil, false, fmt.Errorf("blob %q unrecoverable", name)
}

// Requests returns how many fetch RPCs were issued (misses included).
func (s *Stats) Requests() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.requests
}

// Misses returns how many RPCs came back not-found.
func (s *Stats) Misses() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.misses
}

// Latency returns the per-RPC latency histogram (nanoseconds), or nil if
// nothing was recorded.
func (s *Stats) Latency() *metrics.Histogram {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.latency.Count() == 0 {
		return nil
	}
	return s.latency
}

// PeerChunks returns a copy of the per-peer served-chunk counts (indexed
// by peer rank).
func (s *Stats) PeerChunks() []int64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int64(nil), s.peerChunks...)
}

// PeerBytes returns a copy of the per-peer fetched-byte counts.
func (s *Stats) PeerBytes() []int64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int64(nil), s.peerBytes...)
}

// SourceRanks returns how many distinct peers served at least one chunk
// or blob.
func (s *Stats) SourceRanks() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, c := range s.peerChunks {
		if c > 0 {
			n++
		}
	}
	return n
}
