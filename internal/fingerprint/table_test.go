package fingerprint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// fpOf builds a deterministic fingerprint from an integer id.
func fpOf(id int) FP {
	return Of([]byte(fmt.Sprintf("chunk-%d", id)))
}

func TestLocalCollapsesDuplicates(t *testing.T) {
	fps := []FP{fpOf(1), fpOf(2), fpOf(1), fpOf(3), fpOf(2)}
	tbl := Local(fps, 7, 0, 3)
	if tbl.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", tbl.Len())
	}
	for _, e := range tbl.Entries() {
		if e.Freq != 1 {
			t.Errorf("entry %s freq = %d, want 1", e.FP.Short(), e.Freq)
		}
		if len(e.Ranks) != 1 || e.Ranks[0] != 7 {
			t.Errorf("entry %s ranks = %v, want [7]", e.FP.Short(), e.Ranks)
		}
	}
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestAddLocalCollapsesHeldFingerprints feeds AddLocal after the leaf
// has settled: fingerprints the table holds stay as they are, new ones
// join with frequency 1, exactly as the map-based AddLocal behaved.
func TestAddLocalCollapsesHeldFingerprints(t *testing.T) {
	tbl := Local([]FP{fpOf(1), fpOf(2)}, 4, 0, 3)
	tbl.Merge(Local([]FP{fpOf(2)}, 5, 0, 3))
	tbl.AddLocal(fpOf(2), 4)
	tbl.AddLocal(fpOf(3), 4)
	tbl.AddLocal(fpOf(3), 4)
	tbl.Trim()
	or := oracleLocal([]FP{fpOf(1), fpOf(2)}, 4, 0, 3)
	or.merge(oracleLocal([]FP{fpOf(2)}, 5, 0, 3))
	or.entries[fpOf(3)] = &Entry{FP: fpOf(3), Freq: 1, Ranks: []int32{4}}
	got, err := tbl.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, or.marshal()) {
		t.Fatal("AddLocal after a merge differs from the map-based table")
	}
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AddLocal accepted two ranks in one leaf")
		}
	}()
	tbl.AddLocal(fpOf(7), 4)
	tbl.AddLocal(fpOf(8), 6)
}

func TestLocalRespectsF(t *testing.T) {
	fps := make([]FP, 100)
	for i := range fps {
		fps[i] = fpOf(i)
	}
	tbl := Local(fps, 0, 10, 2)
	if tbl.Len() != 10 {
		t.Fatalf("Len() = %d, want 10 (F bound)", tbl.Len())
	}
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMergeAddsFrequencies(t *testing.T) {
	a := Local([]FP{fpOf(1), fpOf(2)}, 0, 0, 3)
	b := Local([]FP{fpOf(1), fpOf(3)}, 1, 0, 3)
	a.Merge(b)
	if a.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", a.Len())
	}
	e, ok := a.Lookup(fpOf(1))
	if !ok || e.Freq != 2 {
		t.Fatalf("shared fingerprint freq = %+v, want 2", e)
	}
	if len(e.Ranks) != 2 {
		t.Fatalf("shared fingerprint ranks = %v, want both", e.Ranks)
	}
	if e2, ok := a.Lookup(fpOf(3)); !ok || e2.Freq != 1 || e2.Ranks[0] != 1 {
		t.Fatalf("fp3 entry = %+v", e2)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMergeTruncatesRanksAtK(t *testing.T) {
	k := 3
	acc := Local([]FP{fpOf(1)}, 0, 0, k)
	for r := int32(1); r < 6; r++ {
		acc.Merge(Local([]FP{fpOf(1)}, r, 0, k))
	}
	e, ok := acc.Lookup(fpOf(1))
	if !ok {
		t.Fatal("entry lost")
	}
	if e.Freq != 6 {
		t.Errorf("freq = %d, want 6", e.Freq)
	}
	if len(e.Ranks) != k {
		t.Errorf("designated ranks = %v, want %d of them", e.Ranks, k)
	}
	if err := acc.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMergeLoadBalancesDesignation(t *testing.T) {
	// Rank 0 holds fingerprints 1..10; ranks 1..4 each hold only
	// fingerprint 1. With K=2, rank 0 is heavily loaded, so the second
	// designated slot of fingerprint 1 should go to a lightly loaded
	// rank, and rank 0 itself should be dropped from fingerprint 1 when
	// over-designated peers exist.
	k := 2
	var fps0 []FP
	for i := 1; i <= 10; i++ {
		fps0 = append(fps0, fpOf(i))
	}
	acc := Local(fps0, 0, 0, k)
	for r := int32(1); r <= 4; r++ {
		acc.Merge(Local([]FP{fpOf(1)}, r, 0, k))
	}
	e, ok := acc.Lookup(fpOf(1))
	if !ok || len(e.Ranks) != k {
		t.Fatalf("entry = %+v, want %d ranks", e, k)
	}
	for _, r := range e.Ranks {
		if r == 0 {
			t.Errorf("rank 0 (most loaded) still designated for fp1: %v", e.Ranks)
		}
	}
	if err := acc.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTrimKeepsMostFrequent(t *testing.T) {
	f := 2
	k := 2
	// fp1 on 3 ranks, fp2 on 2 ranks, fp3 on 1 rank; F=2 keeps fp1, fp2.
	acc := Local([]FP{fpOf(1), fpOf(2), fpOf(3)}, 0, f, k)
	acc.Merge(Local([]FP{fpOf(1), fpOf(2)}, 1, f, k))
	acc.Merge(Local([]FP{fpOf(1)}, 2, f, k))
	if acc.Len() != f {
		t.Fatalf("Len() = %d, want %d", acc.Len(), f)
	}
	if _, ok := acc.Lookup(fpOf(1)); !ok {
		t.Error("most frequent fingerprint evicted")
	}
	if _, ok := acc.Lookup(fpOf(2)); !ok {
		t.Error("second most frequent fingerprint evicted")
	}
	if _, ok := acc.Lookup(fpOf(3)); ok {
		t.Error("least frequent fingerprint retained")
	}
	if err := acc.Validate(); err != nil {
		t.Fatal(err)
	}
}

// reduceAll simulates the binomial reduction over nRanks tables.
func reduceAll(tables []*Table) *Table {
	n := len(tables)
	for mask := 1; mask < n; mask *= 2 {
		for r := 0; r+mask < n; r += 2 * mask {
			tables[r].Merge(tables[r+mask])
		}
	}
	return tables[0]
}

func TestReductionFrequencyExact(t *testing.T) {
	// With unbounded F, reduced frequencies must equal the number of
	// ranks holding each fingerprint.
	const nRanks = 16
	rng := rand.New(rand.NewSource(42))
	holders := make(map[FP]int)
	tables := make([]*Table, nRanks)
	for r := range tables {
		var fps []FP
		for id := 0; id < 30; id++ {
			if rng.Intn(2) == 0 {
				fp := fpOf(id)
				fps = append(fps, fp)
				holders[fp]++
			}
		}
		tables[r] = Local(fps, int32(r), 0, 3)
	}
	g := reduceAll(tables)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for fp, want := range holders {
		e, ok := g.Lookup(fp)
		if !ok {
			t.Fatalf("fingerprint %s lost in reduction", fp.Short())
		}
		if int(e.Freq) != want {
			t.Errorf("fingerprint %s freq = %d, want %d", fp.Short(), e.Freq, want)
		}
		if len(e.Ranks) > 3 {
			t.Errorf("fingerprint %s has %d > 3 designated ranks", fp.Short(), len(e.Ranks))
		}
		want := want
		if want > 3 {
			want = 3
		}
		if len(e.Ranks) != want {
			t.Errorf("fingerprint %s designated %d ranks, want min(holders,K)=%d", fp.Short(), len(e.Ranks), want)
		}
	}
}

func TestReductionDesignatesOnlyHolders(t *testing.T) {
	// A designated rank must actually hold the fingerprint: designation
	// originates from leaf tables and never invents ranks.
	const nRanks = 12
	rng := rand.New(rand.NewSource(7))
	holds := make(map[FP]map[int32]bool)
	tables := make([]*Table, nRanks)
	for r := range tables {
		var fps []FP
		for id := 0; id < 20; id++ {
			if rng.Intn(3) == 0 {
				fp := fpOf(id)
				fps = append(fps, fp)
				if holds[fp] == nil {
					holds[fp] = make(map[int32]bool)
				}
				holds[fp][int32(r)] = true
			}
		}
		tables[r] = Local(fps, int32(r), 0, 2)
	}
	g := reduceAll(tables)
	for _, e := range g.Entries() {
		for _, r := range e.Ranks {
			if !holds[e.FP][r] {
				t.Errorf("fingerprint %s designated to rank %d which does not hold it", e.FP.Short(), r)
			}
		}
	}
}

func TestMergeDeterministic(t *testing.T) {
	mk := func() []*Table {
		tables := make([]*Table, 8)
		for r := range tables {
			var fps []FP
			for id := 0; id < 50; id++ {
				if (id+r)%3 == 0 {
					fps = append(fps, fpOf(id))
				}
			}
			tables[r] = Local(fps, int32(r), 8, 3)
		}
		return tables
	}
	a, err1 := reduceAll(mk()).MarshalBinary()
	b, err2 := reduceAll(mk()).MarshalBinary()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if string(a) != string(b) {
		t.Fatal("identical reductions produced different tables")
	}
}

func TestWireRoundTrip(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tbl := NewTable(16, 3)
		for id := 0; id < 24; id++ {
			var fps []FP
			fps = append(fps, fpOf(rng.Intn(40)))
			tbl.Merge(Local(fps, int32(rng.Intn(10)), 16, 3))
		}
		blob, err := tbl.MarshalBinary()
		if err != nil {
			return false
		}
		var back Table
		if err := back.UnmarshalBinary(blob); err != nil {
			return false
		}
		blob2, err := back.MarshalBinary()
		if err != nil {
			return false
		}
		return string(blob) == string(blob2) && back.Validate() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	tbl := Local([]FP{fpOf(1), fpOf(2)}, 3, 0, 2)
	blob, err := tbl.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":      {},
		"header":     blob[:8],
		"entry":      blob[:len(blob)-5],
		"trailing":   append(append([]byte{}, blob...), 0xFF),
		"dup-header": blob[:12],
	}
	for name, b := range cases {
		var back Table
		if err := back.UnmarshalBinary(b); err == nil && name != "dup-header" {
			t.Errorf("%s: expected decode error", name)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	tbl := Local([]FP{fpOf(1)}, 0, 0, 2)
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
	tbl.load[0] = 99
	if err := tbl.Validate(); err == nil {
		t.Fatal("Validate missed a corrupted load count")
	}
}

// oracleTable is the map-based Table the columnar one replaced, kept as
// the reference its merges must reproduce byte for byte: entries in a
// map, loads in a map, every merge over a freshly sorted entry list.
type oracleTable struct {
	F, K    int
	entries map[FP]*Entry
	load    map[int32]int32
}

func newOracle(f, k int) *oracleTable {
	if k < 1 {
		k = 1
	}
	return &oracleTable{F: f, K: k, entries: make(map[FP]*Entry), load: make(map[int32]int32)}
}

func oracleLocal(fps []FP, rank int32, f, k int) *oracleTable {
	t := newOracle(f, k)
	for _, fp := range fps {
		if _, ok := t.entries[fp]; ok {
			continue
		}
		t.entries[fp] = &Entry{FP: fp, Freq: 1, Ranks: []int32{rank}}
		t.load[rank]++
	}
	t.trim()
	return t
}

func (t *oracleTable) sorted() []*Entry {
	out := make([]*Entry, 0, len(t.entries))
	for _, e := range t.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FP.Less(out[j].FP) })
	return out
}

func (t *oracleTable) merge(other *oracleTable) {
	for _, oe := range other.sorted() {
		e, ok := t.entries[oe.FP]
		if !ok {
			c := &Entry{FP: oe.FP, Freq: oe.Freq, Ranks: append([]int32(nil), oe.Ranks...)}
			t.entries[oe.FP] = c
			for _, r := range c.Ranks {
				t.load[r]++
			}
			t.truncateRanks(c)
			continue
		}
		e.Freq += oe.Freq
		for _, r := range oe.Ranks {
			i := sort.Search(len(e.Ranks), func(i int) bool { return e.Ranks[i] >= r })
			if i < len(e.Ranks) && e.Ranks[i] == r {
				continue
			}
			e.Ranks = append(e.Ranks, 0)
			copy(e.Ranks[i+1:], e.Ranks[i:])
			e.Ranks[i] = r
			t.load[r]++
		}
		t.truncateRanks(e)
	}
	t.trim()
}

func (t *oracleTable) truncateRanks(e *Entry) {
	for len(e.Ranks) > t.K {
		worst := 0
		for i := 1; i < len(e.Ranks); i++ {
			li, lw := t.load[e.Ranks[i]], t.load[e.Ranks[worst]]
			if li > lw || (li == lw && e.Ranks[i] > e.Ranks[worst]) {
				worst = i
			}
		}
		t.load[e.Ranks[worst]]--
		e.Ranks = append(e.Ranks[:worst], e.Ranks[worst+1:]...)
	}
}

func (t *oracleTable) trim() {
	if t.F <= 0 || len(t.entries) <= t.F {
		return
	}
	all := t.sorted()
	sort.Slice(all, func(i, j int) bool {
		if all[i].Freq != all[j].Freq {
			return all[i].Freq > all[j].Freq
		}
		return all[i].FP.Less(all[j].FP)
	})
	for _, e := range all[t.F:] {
		for _, r := range e.Ranks {
			t.load[r]--
		}
		delete(t.entries, e.FP)
	}
}

func (t *oracleTable) marshal() []byte {
	buf := binary.BigEndian.AppendUint32(nil, uint32(t.F))
	buf = binary.BigEndian.AppendUint32(buf, uint32(t.K))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(t.entries)))
	for _, e := range t.sorted() {
		buf = append(buf, e.FP[:]...)
		buf = binary.BigEndian.AppendUint32(buf, e.Freq)
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(e.Ranks)))
		for _, r := range e.Ranks {
			buf = binary.BigEndian.AppendUint32(buf, uint32(r))
		}
	}
	return buf
}

// diffCase is one differential scenario: per-rank fingerprint sets over
// a small shared universe (so sets overlap and frequencies tie) and the
// bounds every table uses.
type diffCase struct {
	f, k int
	sets [][]FP
}

func randomDiffCase(rng *rand.Rand) diffCase {
	n := 1 + rng.Intn(64)
	c := diffCase{k: 1 + rng.Intn(6)}
	if rng.Intn(2) == 0 {
		c.f = 1 + rng.Intn(40)
	}
	universe := 1 + rng.Intn(96)
	density := 1 + rng.Intn(4)
	c.sets = make([][]FP, n)
	for r := range c.sets {
		for id := 0; id < universe; id++ {
			if rng.Intn(density+1) == 0 {
				c.sets[r] = append(c.sets[r], detFP(id))
			}
		}
	}
	return c
}

// checkDifferential reduces the case's leaves with the columnar table and
// the oracle side by side, pairing tables in an order drawn from pick,
// and fails on the first merge whose encodings differ. Every other merge
// goes through the wire, so decoding is checked against the carried
// state as well.
func checkDifferential(t *testing.T, c diffCase, pick func(int) int) {
	t.Helper()
	n := len(c.sets)
	tabs := make([]*Table, n)
	ors := make([]*oracleTable, n)
	for r, fps := range c.sets {
		tabs[r] = Local(fps, int32(r), c.f, c.k)
		ors[r] = oracleLocal(fps, int32(r), c.f, c.k)
	}
	for step := 0; len(tabs) > 1; step++ {
		i := pick(len(tabs))
		j := pick(len(tabs) - 1)
		if j >= i {
			j++
		}
		if step%2 == 1 {
			blob, err := tabs[i].MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			tabs[i] = new(Table)
			if err := tabs[i].UnmarshalBinary(blob); err != nil {
				t.Fatal(err)
			}
		}
		tabs[i].Merge(tabs[j])
		ors[i].merge(ors[j])
		got, err := tabs[i].MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if want := ors[i].marshal(); !bytes.Equal(got, want) {
			t.Fatalf("step %d (n=%d K=%d F=%d): merge encoding differs from the oracle (%d vs %d bytes)",
				step, n, c.k, c.f, len(got), len(want))
		}
		if err := tabs[i].Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		tabs = append(tabs[:j], tabs[j+1:]...)
		ors = append(ors[:j], ors[j+1:]...)
	}
}

// TestTableMergeMatchesOracle is the differential test of the columnar
// rewrite: over seeded random reductions (N up to 64, K 1..6, F bounded
// and unbounded, overlapping sets and frequency ties), every merge must
// encode exactly like the map-based table it replaced.
func TestTableMergeMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		checkDifferential(t, randomDiffCase(rng), rng.Intn)
	}
}

// FuzzTableMerge is the differential check driven by arbitrary bytes:
// they choose the bounds, the per-rank sets and the merge order.
func FuzzTableMerge(f *testing.F) {
	f.Add([]byte{3, 2, 5, 0xff, 0x0f, 0xf0, 1, 2, 3})
	f.Add([]byte{9, 6, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add(bytes.Repeat([]byte{0xa5, 0x3c}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		n := 1 + next()%16
		c := diffCase{k: 1 + next()%6, f: next() % 12}
		c.sets = make([][]FP, n)
		for r := range c.sets {
			mask := next()<<8 | next()
			for id := 0; id < 16; id++ {
				if mask&(1<<id) != 0 {
					c.sets[r] = append(c.sets[r], detFP(id))
				}
			}
		}
		checkDifferential(t, c, func(m int) int { return next() % m })
	})
}

// TestTableAllocsConstant guards the columnar design: one HMERGE step —
// decode two tables, merge, encode — must allocate the same number of
// times whatever the entry count.
func TestTableAllocsConstant(t *testing.T) {
	allocs := func(entries int) float64 {
		a, b := benchTables(entries, entries, 3)
		ab, err := a.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		bb, err := b.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := MergeBinary(ab, bb); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(256), allocs(8192)
	if large > small {
		t.Fatalf("HMERGE step allocates %.0f times at 8192 entries, %.0f at 256", large, small)
	}
}
