package telemetry

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"dedupcr/internal/metrics"
)

// fullDump builds a dump with every field populated, histogram included.
func fullDump(rank int) metrics.Dump {
	h := metrics.NewHistogram()
	for _, v := range []int64{900, 12_000, 47_000, 2_000_000, 150_000_000} {
		h.Record(v)
	}
	return metrics.Dump{
		Rank: rank, DatasetBytes: 1 << 20, TotalChunks: 256, LocalUniqueChunks: 200,
		HashedBytes: 1 << 20, StoredChunks: 210, StoredBytes: 860_000,
		SentChunks: 120, SentBytes: 490_000, RecvChunks: 118, RecvBytes: 480_000,
		ReductionBytes: 65_000, ReductionRounds: 3, LoadExchangeBytes: 2_048,
		WindowBytes: 500_000, UniqueContentBytes: 820_000, PutRetries: 7,
		Phases: metrics.Phases{PhaseTimes: metrics.PhaseTimes{Dur: [metrics.NumPhases]time.Duration{
			metrics.Chunking: time.Millisecond, metrics.Fingerprint: 2 * time.Millisecond,
			metrics.LocalDedup: 300 * time.Microsecond, metrics.Reduction: 4 * time.Millisecond,
			metrics.LoadExchange: time.Millisecond, metrics.Planning: 200 * time.Microsecond,
			metrics.WindowOpen: 50 * time.Microsecond, metrics.Put: 3 * time.Millisecond,
			metrics.WindowWait: 2 * time.Millisecond, metrics.Commit: time.Millisecond,
			metrics.Barrier: 400 * time.Microsecond,
		}, Total: 16 * time.Millisecond}, ReductionRoundTimes: []time.Duration{2 * time.Millisecond, 1500 * time.Microsecond}, FingerprintWorkers: []time.Duration{time.Millisecond, 900 * time.Microsecond}, PutWorkers: []time.Duration{2 * time.Millisecond}},
		BarrierExit: time.Unix(1700000000, 123456789),
		PutLatency:  h,
	}
}

// fullRestore builds a restore with every field populated, all three
// histograms included.
func fullRestore(rank int) metrics.Restore {
	runs := metrics.NewHistogram()
	for _, v := range []int64{1, 1, 2, 7, 64, 256} {
		runs.Record(v)
	}
	fetch := metrics.NewHistogram()
	for _, v := range []int64{40_000, 90_000, 2_000_000} {
		fetch.Record(v)
	}
	reads := metrics.NewHistogram()
	for _, v := range []int64{700, 1_200, 55_000} {
		reads.Record(v)
	}
	return metrics.Restore{
		Rank: rank, LogicalBytes: 1 << 20, TotalChunks: 256, UniqueChunks: 240,
		LocalChunks: 150, LocalBytes: 600_000, FetchedChunks: 106, FetchedBytes: 448_576,
		FetchRequests: 110, FetchMisses: 4, MetaFetches: 1, RecoveredChunks: 12,
		SourceRanks: 5, ObjectsTouched: 161, LargestRun: 256,
		PeerFetchChunks: []int64{0, 40, 66}, PeerFetchBytes: []int64{0, 160_000, 288_576},
		Phases: metrics.PhaseTimes{Dur: [metrics.NumPhases]time.Duration{
			metrics.RestoreMeta: 300 * time.Microsecond, metrics.Assemble: 9 * time.Millisecond,
			metrics.Fetch: 6 * time.Millisecond, metrics.ShardRecover: 2 * time.Millisecond,
			metrics.RestoreCommit: time.Millisecond, metrics.RestoreBarrier: 700 * time.Microsecond,
		}, Total: 13 * time.Millisecond},
		BarrierExit:      time.Unix(1700000000, 987654321),
		RunLengths:       runs,
		FetchLatency:     fetch,
		StoreReadLatency: reads,
	}
}

// roundTrip encodes rec, decodes it back and checks that encoding the
// same record twice gives identical bytes.
func roundTrip[T record](t *testing.T, rec T) T {
	t.Helper()
	enc, err := encode(rec)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := encode(rec); !bytes.Equal(enc, again) {
		t.Fatalf("%s encoding not deterministic", kindOf[T]())
	}
	out, err := decode[T](enc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sameHistogram checks that got reproduces want exactly: count, sum, max
// and every bucket (their MarshalBinary forms are equal).
func sameHistogram(t *testing.T, name string, got, want *metrics.Histogram) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: got %v, want %v", name, got, want)
	}
	if want == nil {
		return
	}
	gb, _ := got.MarshalBinary()
	wb, _ := want.MarshalBinary()
	if !bytes.Equal(gb, wb) || got.Count() != want.Count() || got.Sum() != want.Sum() || got.Max() != want.Max() {
		t.Errorf("%s: histogram changed in round trip", name)
	}
}

func TestDumpWireRoundTrip(t *testing.T) {
	in := fullDump(3)
	out := roundTrip(t, in)
	sameHistogram(t, "put latency", out.PutLatency, in.PutLatency)
	if !out.BarrierExit.Equal(in.BarrierExit) {
		t.Errorf("barrier exit: got %v, want %v", out.BarrierExit, in.BarrierExit)
	}
	inCmp, outCmp := in, out
	inCmp.PutLatency, outCmp.PutLatency = nil, nil
	inCmp.BarrierExit, outCmp.BarrierExit = time.Time{}, time.Time{}
	if !reflect.DeepEqual(inCmp, outCmp) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", inCmp, outCmp)
	}
}

func TestRestoreWireRoundTrip(t *testing.T) {
	in := fullRestore(4)
	out := roundTrip(t, in)
	sameHistogram(t, "run lengths", out.RunLengths, in.RunLengths)
	sameHistogram(t, "fetch latency", out.FetchLatency, in.FetchLatency)
	sameHistogram(t, "store read latency", out.StoreReadLatency, in.StoreReadLatency)
	if !out.BarrierExit.Equal(in.BarrierExit) {
		t.Errorf("barrier exit: got %v, want %v", out.BarrierExit, in.BarrierExit)
	}
	inCmp, outCmp := in, out
	inCmp.RunLengths, outCmp.RunLengths = nil, nil
	inCmp.FetchLatency, outCmp.FetchLatency = nil, nil
	inCmp.StoreReadLatency, outCmp.StoreReadLatency = nil, nil
	inCmp.BarrierExit, outCmp.BarrierExit = time.Time{}, time.Time{}
	if !reflect.DeepEqual(inCmp, outCmp) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", inCmp, outCmp)
	}
}

func TestStoreWireRoundTrip(t *testing.T) {
	in := storeStatsFixture(3)
	if out := roundTrip(t, in); out != in {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

func TestDumpWireNilHistogramAndZeroTime(t *testing.T) {
	out := roundTrip(t, metrics.Dump{Rank: 0})
	if out.PutLatency != nil {
		t.Error("nil histogram decoded as non-nil")
	}
	if !out.BarrierExit.IsZero() {
		t.Errorf("zero barrier exit decoded as %v", out.BarrierExit)
	}
}

func TestRestoreWireNilHistogramsAndZeroTime(t *testing.T) {
	out := roundTrip(t, metrics.Restore{Rank: 0})
	if out.RunLengths != nil || out.FetchLatency != nil || out.StoreReadLatency != nil {
		t.Error("nil histogram decoded as non-nil")
	}
	if !out.BarrierExit.IsZero() {
		t.Errorf("zero barrier exit decoded as %v", out.BarrierExit)
	}
	if out.PeerFetchChunks != nil || out.PeerFetchBytes != nil {
		t.Error("empty peer matrix decoded as non-nil")
	}
}

// checkRejects feeds decode every malformed variant of a valid encoding
// of rec: empty input, a wrong version or kind, a different phase table,
// an unknown field, a missing record, truncation at every byte and
// trailing bytes.
func checkRejects[T record](t *testing.T, rec T) {
	t.Helper()
	enc, err := encode(rec)
	if err != nil {
		t.Fatal(err)
	}
	kind := kindOf[T]()
	edit := func(old, new string) []byte {
		if !bytes.Contains(enc, []byte(old)) {
			t.Fatalf("encoding lacks %s", old)
		}
		return bytes.Replace(enc, []byte(old), []byte(new), 1)
	}
	head := string(enc[:bytes.Index(enc, []byte(`"Record":`))])
	otherKind := "dump"
	if kind == otherKind {
		otherKind = "store"
	}
	bad := map[string][]byte{
		"empty input":          nil,
		"wrong version":        edit(`"Version":4`, `"Version":3`),
		"wrong kind":           edit(`"Kind":"`+kind+`"`, `"Kind":"`+otherKind+`"`),
		"renamed phase":        edit(`"fetch"`, `"fetch2"`),
		"extra phase":          edit(`"store-telemetry"]`, `"store-telemetry","scrub"]`),
		"missing phase":        edit(`,"store-telemetry"]`, `]`),
		"unknown field":        edit(`"Version":4`, `"Version":4,"Extra":1`),
		"unknown record field": edit(`"Record":{`, `"Record":{"Extra":1,`),
		"null record":          []byte(head + `"Record":null}`),
		"missing record":       []byte(strings.TrimSuffix(head, ",") + "}"),
		"trailing byte":        append(append([]byte(nil), enc...), 0),
		"trailing space":       append(append([]byte(nil), enc...), ' '),
		"old binary form":      append([]byte{3}, enc[1:]...),
	}
	for name, data := range bad {
		if _, err := decode[T](data); err == nil {
			t.Errorf("%s: %s accepted", kind, name)
		}
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, err := decode[T](enc[:cut]); err == nil {
			t.Fatalf("%s: truncation at %d of %d accepted", kind, cut, len(enc))
		}
	}
}

func TestDumpWireRejects(t *testing.T)    { checkRejects(t, fullDump(1)) }
func TestRestoreWireRejects(t *testing.T) { checkRejects(t, fullRestore(1)) }
func TestStoreWireRejects(t *testing.T)   { checkRejects(t, storeStatsFixture(0)) }

// TestDumpEncodingByteIdentical pins the telemetry wire encoding: 100
// independently built dumps of the same metrics must encode to the same
// bytes, so the cross-rank trace merge and the gather's rank check never
// see layout-dependent output.
func TestDumpEncodingByteIdentical(t *testing.T) {
	want, err := encode(fullDump(3))
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 100; run++ {
		if got, _ := encode(fullDump(3)); !bytes.Equal(got, want) {
			t.Fatalf("run %d: encoding differs (%d vs %d bytes)", run, len(got), len(want))
		}
	}
}

// TestRestoreEncodingByteIdentical pins the restore encoding the same
// way.
func TestRestoreEncodingByteIdentical(t *testing.T) {
	want, err := encode(fullRestore(3))
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 100; run++ {
		if got, _ := encode(fullRestore(3)); !bytes.Equal(got, want) {
			t.Fatalf("run %d: encoding differs (%d vs %d bytes)", run, len(got), len(want))
		}
	}
}

// fuzzRecord decodes data as a T record; whatever decodes must re-encode,
// decode again and re-encode to the same bytes.
func fuzzRecord[T record](t *testing.T, data []byte) {
	rec, err := decode[T](data)
	if err != nil {
		return
	}
	enc, err := encode(rec)
	if err != nil {
		t.Fatalf("re-encode of decoded %s failed: %v", kindOf[T](), err)
	}
	again, err := decode[T](enc)
	if err != nil {
		t.Fatalf("re-decode of re-encoded %s failed: %v", kindOf[T](), err)
	}
	if enc2, _ := encode(again); !bytes.Equal(enc, enc2) {
		t.Fatalf("%s re-encoding unstable:\n%s\n%s", kindOf[T](), enc, enc2)
	}
}

// FuzzDecodeRecord drives the telemetry decoder with arbitrary bytes as
// each of the three record kinds: records arrive from peers, so decoding
// must never panic, and any input that decodes must survive a
// decode → encode → decode cycle.
func FuzzDecodeRecord(f *testing.F) {
	seed := func(enc []byte, err error) {
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
	}
	seed(encode(fullDump(1)))
	seed(encode(fullRestore(1)))
	seed(encode(storeStatsFixture(1)))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzRecord[metrics.Dump](t, data)
		fuzzRecord[metrics.Restore](t, data)
		fuzzRecord[metrics.StoreStats](t, data)
	})
}
