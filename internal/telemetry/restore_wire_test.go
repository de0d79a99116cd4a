package telemetry

import (
	"bytes"
	"testing"
	"time"

	"dedupcr/internal/metrics"
)

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

func TestRestoreWireRoundTrip(t *testing.T) {
	in := fullRestore(4)
	enc, err := EncodeRestore(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeRestore(enc)
	if err != nil {
		t.Fatal(err)
	}

	// Compare everything except the histogram pointers field-wise.
	inCmp, outCmp := in, out
	inCmp.RunLengths, outCmp.RunLengths = nil, nil
	inCmp.FetchLatency, outCmp.FetchLatency = nil, nil
	inCmp.StoreReadLatency, outCmp.StoreReadLatency = nil, nil
	inCmp.PeerFetchChunks, outCmp.PeerFetchChunks = nil, nil
	inCmp.PeerFetchBytes, outCmp.PeerFetchBytes = nil, nil
	if inCmp.Rank != outCmp.Rank || inCmp.FetchedBytes != outCmp.FetchedBytes ||
		inCmp.Phases != outCmp.Phases || inCmp.LargestRun != outCmp.LargestRun ||
		inCmp.ObjectsTouched != outCmp.ObjectsTouched ||
		!inCmp.BarrierExit.Equal(outCmp.BarrierExit) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", inCmp, outCmp)
	}
	if len(out.PeerFetchChunks) != 3 || out.PeerFetchChunks[2] != 66 ||
		len(out.PeerFetchBytes) != 3 || out.PeerFetchBytes[1] != 160_000 {
		t.Fatalf("peer matrix mismatch: %v / %v", out.PeerFetchChunks, out.PeerFetchBytes)
	}
	for i, pair := range []struct{ in, out *metrics.Histogram }{
		{in.RunLengths, out.RunLengths},
		{in.FetchLatency, out.FetchLatency},
		{in.StoreReadLatency, out.StoreReadLatency},
	} {
		if pair.out == nil {
			t.Fatalf("histogram %d lost in round trip", i)
		}
		if pair.out.Count() != pair.in.Count() || pair.out.Sum() != pair.in.Sum() {
			t.Errorf("histogram %d count/sum mismatch", i)
		}
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			if got, want := pair.out.Quantile(q), pair.in.Quantile(q); got != want {
				t.Errorf("histogram %d q%.2f: got %d, want %d", i, q, got, want)
			}
		}
	}
	if got, want := out.ReadAmplificationBytes(), in.ReadAmplificationBytes(); got != want {
		t.Errorf("read amplification: got %g, want %g", got, want)
	}
}

func TestRestoreWireNilHistogramsAndZeroTime(t *testing.T) {
	in := metrics.Restore{Rank: 0}
	enc, err := EncodeRestore(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeRestore(enc)
	if err != nil {
		t.Fatal(err)
	}
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

func TestRestoreWireRejects(t *testing.T) {
	enc, err := EncodeRestore(fullRestore(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRestore(nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := DecodeRestore(append([]byte{99}, enc[1:]...)); err == nil {
		t.Error("wrong version accepted")
	}
	for _, cut := range []int{1, 8, len(enc) / 2, len(enc) - 1} {
		if _, err := DecodeRestore(enc[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	if _, err := DecodeRestore(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// TestRestoreEncodingByteIdentical pins the restore wire encoding the
// same way TestDumpEncodingByteIdentical pins the dump's: 100
// independently built restores of the same metrics must encode to the
// same bytes.
func TestRestoreEncodingByteIdentical(t *testing.T) {
	want, err := EncodeRestore(fullRestore(3))
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 100; run++ {
		got, err := EncodeRestore(fullRestore(3))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("run %d: encoding differs (%d vs %d bytes)", run, len(got), len(want))
		}
	}
}

// FuzzRestoreMetricsDecode drives the restore telemetry decoder with
// arbitrary bytes: every length prefix arrives from peers and must be
// bounded before allocation, and any input that decodes must survive a
// re-encode cycle.
func FuzzRestoreMetricsDecode(f *testing.F) {
	valid, err := EncodeRestore(fullRestore(1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:9])
	f.Add([]byte{})
	f.Add([]byte{restoreWireVersion})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeRestore(data)
		if err != nil {
			return
		}
		enc, err := EncodeRestore(r)
		if err != nil {
			t.Fatalf("re-encode of decoded restore failed: %v", err)
		}
		if _, err := DecodeRestore(enc); err != nil {
			t.Fatalf("re-decode of re-encoded restore failed: %v", err)
		}
	})
}
