package fingerprint

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
)

// maxRanks bounds designated rank ids: a table only holds ranks in
// [0, maxRanks). The designation loads live in an array indexed by rank,
// so the bound is what keeps a peer-supplied rank id from sizing an
// arbitrary allocation. It matches the fetch service's per-class tag
// space, which already caps a group at this size.
const maxRanks = 1 << 19

// Entry is one row of the global fingerprint view: a fingerprint, the
// number of distinct ranks on which it occurs (its frequency), and the at
// most K ranks designated to store its chunk (the "designated ranks").
//
// Ranks is kept sorted ascending; the position of a rank inside Ranks
// drives the round-robin assignment of missing replicas, so a shared
// deterministic order matters. An Entry returned by a Table aliases the
// table's rank column and must not be mutated.
type Entry struct {
	FP    FP
	Freq  uint32
	Ranks []int32
}

// RankIndex returns the position of rank inside the sorted designated
// list, or -1 when rank is not designated.
func (e Entry) RankIndex(rank int32) int {
	if i, ok := slices.BinarySearch(e.Ranks, rank); ok {
		return i
	}
	return -1
}

// Table is the HMERGE reduction state: a bounded set of at most F
// fingerprint entries (the most frequent seen so far) plus the
// designation-load bookkeeping used to balance rank assignment.
//
// Entries are stored as columns sorted by fingerprint: entry i is
// (fps[i], freq[i], ranks[off[i]:off[i+1]]). Merging is a two-pointer
// walk over two such column sets, so a merge allocates a fixed number of
// columns regardless of the entry count. The zero Table is an empty table
// with F = K = 0, ready for UnmarshalBinary; build others with NewTable or
// Local.
type Table struct {
	// F is the maximum number of entries retained (the paper's threshold,
	// 2^17 in the evaluation). F <= 0 means unbounded.
	F int
	// K is the replication factor: at most K designated ranks per entry.
	K int

	fps   []FP
	freq  []uint32
	off   []uint32 // len(fps)+1 offsets into ranks once the table has entries
	ranks []int32
	// load[r] counts how many entries currently designate rank r. It is
	// the quantity minimized by the truncation rule.
	load []int32

	// pending holds fingerprints added by AddLocal and not yet folded
	// into the columns, all for rank pendingRank.
	pending     []FP
	pendingRank int32
}

// NewTable returns an empty table with the given bounds.
func NewTable(f, k int) *Table {
	if k < 1 {
		k = 1
	}
	return &Table{F: f, K: k}
}

// Local builds the leaf table of a reduction: every locally unique
// fingerprint of rank appears with frequency 1 and a single designated
// rank. The input need not be deduplicated; duplicates are collapsed.
func Local(fps []FP, rank int32, f, k int) *Table {
	checkRank(rank)
	t := NewTable(f, k)
	// Capped so a later AddLocal copies instead of writing into fps.
	t.pending, t.pendingRank = fps[:len(fps):len(fps)], rank
	t.Trim()
	return t
}

// AddLocal inserts one locally observed fingerprint into a leaf table
// under construction: frequency 1, the calling rank designated. Repeated
// fingerprints, and fingerprints the table already holds, are collapsed,
// so callers may feed the raw chunk stream. A leaf holds one rank's
// fingerprints: every AddLocal call on a table passes the same rank.
// The parallel dump pipeline builds its leaf table incrementally through
// AddLocal while later chunks are still being hashed; callers must invoke
// Trim once the stream ends to restore the top-F bound before the table
// enters a reduction.
func (t *Table) AddLocal(fp FP, rank int32) {
	checkRank(rank)
	if len(t.pending) > 0 && rank != t.pendingRank {
		panic(fmt.Sprintf("fingerprint: AddLocal mixes ranks %d and %d in one leaf", t.pendingRank, rank))
	}
	t.pendingRank = rank
	t.pending = append(t.pending, fp)
}

// Trim enforces the top-F bound, the closing step of incremental leaf
// construction via AddLocal. Merge applies it automatically.
func (t *Table) Trim() {
	t.settle()
	t.trim()
}

// Len returns the number of entries currently held.
func (t *Table) Len() int {
	t.settle()
	return len(t.fps)
}

// Lookup returns the entry for fp and whether the table holds it.
func (t *Table) Lookup(fp FP) (Entry, bool) {
	t.settle()
	i, ok := t.find(fp)
	if !ok {
		return Entry{}, false
	}
	return t.entry(i), true
}

// Entries returns all entries sorted by fingerprint. Their rank lists
// alias the table; callers must not mutate them.
func (t *Table) Entries() []Entry {
	t.settle()
	out := make([]Entry, len(t.fps))
	for i := range out {
		out[i] = t.entry(i)
	}
	return out
}

func (t *Table) entry(i int) Entry {
	return Entry{FP: t.fps[i], Freq: t.freq[i], Ranks: t.rankSpan(i)}
}

func (t *Table) rankSpan(i int) []int32 { return t.ranks[t.off[i]:t.off[i+1]:t.off[i+1]] }

// find binary-searches the fingerprint column.
func (t *Table) find(fp FP) (int, bool) {
	return slices.BinarySearchFunc(t.fps, fp, FP.Compare)
}

// Merge folds other into t, implementing the paper's HMERGE step:
//
//  1. frequencies of common fingerprints add up (frequency in the union),
//  2. designated rank lists are unioned and, when longer than K,
//     truncated by dropping the most designation-loaded ranks first,
//  3. only the F most frequent fingerprints of the union are retained
//     (ties broken by fingerprint order so all ranks agree).
//
// Entries are processed in ascending fingerprint order, so the loads each
// truncation sees are the same on every rank. Merge mutates t and leaves
// other's entries untouched. It is deterministic: merging the same pair
// of tables always yields the same result, which the reduction relies on.
func (t *Table) Merge(other *Table) {
	if other == nil {
		return
	}
	t.settle()
	other.settle()
	t.union(other, true)
	t.trim()
}

// union walks t and o in fingerprint order into fresh columns. An entry
// only in t is kept as is; an entry only in o is copied and truncated to
// K ranks. With merge set, a common entry adds up both frequencies and
// unions o's ranks into t's, then is truncated; without it, t's entry is
// kept as is (AddLocal's collapse of fingerprints already held).
func (t *Table) union(o *Table, merge bool) {
	if len(o.fps) == 0 {
		return
	}
	t.growLoad(len(o.load))
	n := len(t.fps) + len(o.fps)
	fps := make([]FP, 0, n)
	freq := make([]uint32, 0, n)
	off := make([]uint32, 1, n+1)
	ranks := make([]int32, 0, len(t.ranks)+len(o.ranks))
	i, j := 0, 0
	for i < len(t.fps) || j < len(o.fps) {
		c := -1
		switch {
		case i == len(t.fps):
			c = 1
		case j < len(o.fps):
			c = t.fps[i].Compare(o.fps[j])
		}
		start := len(ranks)
		switch {
		case c < 0 || c == 0 && !merge:
			fps = append(fps, t.fps[i])
			freq = append(freq, t.freq[i])
			ranks = append(ranks, t.rankSpan(i)...)
			if c == 0 {
				j++
			}
			i++
		case c > 0:
			fps = append(fps, o.fps[j])
			freq = append(freq, o.freq[j])
			ranks = append(ranks, o.rankSpan(j)...)
			for _, r := range o.rankSpan(j) {
				t.load[r]++
			}
			ranks = t.truncate(ranks, start)
			j++
		default:
			fps = append(fps, t.fps[i])
			freq = append(freq, t.freq[i]+o.freq[j])
			ranks = append(ranks, t.rankSpan(i)...)
			for _, r := range o.rankSpan(j) {
				k, found := slices.BinarySearch(ranks[start:], r)
				if found {
					continue
				}
				ranks = slices.Insert(ranks, start+k, r)
				t.load[r]++
			}
			ranks = t.truncate(ranks, start)
			i++
			j++
		}
		off = append(off, uint32(len(ranks)))
	}
	t.fps, t.freq, t.off, t.ranks = fps, freq, off, ranks
}

// truncate enforces a rank list of at most K entries on ranks[start:],
// the list being built, by evicting the most loaded ranks first,
// shifting designation toward less loaded processes.
func (t *Table) truncate(ranks []int32, start int) []int32 {
	for len(ranks)-start > t.K {
		// Pick the rank with the highest current load; break ties by the
		// larger rank id so the choice is deterministic.
		worst := start
		for i := start + 1; i < len(ranks); i++ {
			li, lw := t.load[ranks[i]], t.load[ranks[worst]]
			if li > lw || (li == lw && ranks[i] > ranks[worst]) {
				worst = i
			}
		}
		t.load[ranks[worst]]--
		ranks = slices.Delete(ranks, worst, worst+1)
	}
	return ranks
}

// trim enforces the top-F bound, releasing designations of evicted
// entries. Entries rank by frequency descending, fingerprint ascending:
// a partial selection finds the F-th highest frequency, and because the
// columns are in fingerprint order, the entries kept at that frequency
// are simply the first ones met.
func (t *Table) trim() {
	if t.F <= 0 || len(t.fps) <= t.F {
		return
	}
	thr := nthLargest(slices.Clone(t.freq), t.F)
	ties := t.F
	for _, f := range t.freq {
		if f > thr {
			ties--
		}
	}
	w := 0
	var rw uint32
	for i := range t.fps {
		span := t.rankSpan(i)
		keep := t.freq[i] > thr
		if !keep && t.freq[i] == thr && ties > 0 {
			keep = true
			ties--
		}
		if !keep {
			for _, r := range span {
				t.load[r]--
			}
			continue
		}
		t.fps[w], t.freq[w] = t.fps[i], t.freq[i]
		t.off[w] = rw
		rw += uint32(copy(t.ranks[rw:], span))
		w++
	}
	t.fps, t.freq = t.fps[:w], t.freq[:w]
	t.off = append(t.off[:w], rw)
	t.ranks = t.ranks[:rw]
}

// nthLargest returns the k-th largest value (1-based) of v, reordering v:
// a quickselect with three-way partitions, so the long runs of equal
// frequencies a reduction produces are settled in one pass.
func nthLargest(v []uint32, k int) uint32 {
	lo, hi, want := 0, len(v)-1, k-1
	for lo < hi {
		a, b, c := v[lo], v[lo+(hi-lo)/2], v[hi]
		p := max(min(a, b), min(max(a, b), c)) // median of three
		lt, i, gt := lo, lo, hi
		for i <= gt {
			switch {
			case v[i] > p:
				v[lt], v[i] = v[i], v[lt]
				lt++
				i++
			case v[i] < p:
				v[i], v[gt] = v[gt], v[i]
				gt--
			default:
				i++
			}
		}
		switch {
		case want < lt:
			hi = lt - 1
		case want > gt:
			lo = gt + 1
		default:
			return p
		}
	}
	return v[lo]
}

// settle folds the fingerprints queued by AddLocal into the columns:
// sorted, duplicates collapsed, and fingerprints the table already holds
// skipped.
func (t *Table) settle() {
	if len(t.pending) == 0 {
		return
	}
	p := slices.Compact(sortFPs(t.pending))
	r := t.pendingRank
	t.pending = nil
	leaf := &Table{
		fps:   p,
		freq:  make([]uint32, len(p)),
		off:   make([]uint32, len(p)+1),
		ranks: make([]int32, len(p)),
		load:  make([]int32, r+1),
	}
	for i := range p {
		leaf.freq[i], leaf.off[i+1], leaf.ranks[i] = 1, uint32(i+1), r
	}
	leaf.load[r] = int32(len(p))
	if len(t.fps) > 0 {
		t.union(leaf, false)
		return
	}
	t.fps, t.freq, t.off, t.ranks, t.load = leaf.fps, leaf.freq, leaf.off, leaf.ranks, leaf.load
}

// sortFPs returns fps in ascending order. It sorts (leading word, index)
// keys, 16 bytes each and compared with one integer comparison in almost
// every case, instead of swapping 20-byte fingerprints, then gathers.
func sortFPs(fps []FP) []FP {
	type key struct {
		lead uint64
		i    int
	}
	keys := make([]key, len(fps))
	for i := range fps {
		keys[i] = key{binary.BigEndian.Uint64(fps[i][:]), i}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if a.lead != b.lead {
			return cmp.Compare(a.lead, b.lead)
		}
		return fps[a.i].Compare(fps[b.i])
	})
	out := make([]FP, len(fps))
	for j, k := range keys {
		out[j] = fps[k.i]
	}
	return out
}

// growLoad extends the load array to cover ranks below n.
func (t *Table) growLoad(n int) {
	if n > len(t.load) {
		t.load = append(t.load, make([]int32, n-len(t.load))...)
	}
}

func checkRank(r int32) {
	if r < 0 || r >= maxRanks {
		panic(fmt.Sprintf("fingerprint: rank %d outside [0, %d)", r, maxRanks))
	}
}

// Validate checks internal invariants; used by tests and debug builds.
func (t *Table) Validate() error {
	t.settle()
	want := make([]int32, len(t.load))
	for i, fp := range t.fps {
		if i > 0 && !t.fps[i-1].Less(fp) {
			return fmt.Errorf("fingerprint %s out of order", fp.Short())
		}
		ranks := t.rankSpan(i)
		if len(ranks) == 0 {
			return fmt.Errorf("fingerprint %s has no designated ranks", fp.Short())
		}
		if len(ranks) > t.K {
			return fmt.Errorf("fingerprint %s has %d > K=%d designated ranks", fp.Short(), len(ranks), t.K)
		}
		if !sort.SliceIsSorted(ranks, func(i, j int) bool { return ranks[i] < ranks[j] }) {
			return fmt.Errorf("fingerprint %s ranks not sorted: %v", fp.Short(), ranks)
		}
		for i := 1; i < len(ranks); i++ {
			if ranks[i] == ranks[i-1] {
				return fmt.Errorf("fingerprint %s duplicate rank %d", fp.Short(), ranks[i])
			}
		}
		if t.freq[i] == 0 {
			return fmt.Errorf("fingerprint %s has zero frequency", fp.Short())
		}
		for _, r := range ranks {
			if int(r) >= len(want) {
				return fmt.Errorf("fingerprint %s rank %d beyond the load array", fp.Short(), r)
			}
			want[r]++
		}
	}
	if t.F > 0 && len(t.fps) > t.F {
		return fmt.Errorf("table holds %d entries > F=%d", len(t.fps), t.F)
	}
	for r, n := range t.load {
		if n != want[r] {
			return fmt.Errorf("rank %d load=%d, recount=%d", r, n, want[r])
		}
	}
	return nil
}
