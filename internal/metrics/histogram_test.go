package metrics

import (
	"bytes"
	"encoding/base64"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketRoundTrip(t *testing.T) {
	// Every bucket's upper bound must map back into that bucket, and
	// bucket boundaries must be monotonic.
	prev := int64(-1)
	for i := 0; i < histBuckets; i++ {
		u := bucketUpper(i)
		if u <= prev && u != math.MaxInt64 {
			t.Fatalf("bucketUpper(%d) = %d not > bucketUpper(%d) = %d", i, u, i-1, prev)
		}
		if u != math.MaxInt64 {
			if got := bucketOf(u); got != i {
				t.Fatalf("bucketOf(bucketUpper(%d)=%d) = %d", i, u, got)
			}
		}
		prev = u
	}
}

// TestHistogramTextRoundTrip pins the text form encoding/json uses for
// histograms in telemetry records: it reproduces every bucket, count,
// sum and max, and rejects text that is not strict base64 of a complete
// binary encoding.
func TestHistogramTextRoundTrip(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int64{3, 900, 47_000, 2_000_000} {
		h.Record(v)
	}
	text, err := h.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	var got Histogram
	if err := got.UnmarshalText(text); err != nil {
		t.Fatal(err)
	}
	want, _ := h.MarshalBinary()
	if gb, _ := got.MarshalBinary(); !bytes.Equal(gb, want) {
		t.Fatal("histogram changed in text round trip")
	}
	enc := base64.StdEncoding.EncodeToString
	for name, bad := range map[string]string{
		"not base64":      "!!!!",
		"missing padding": strings.TrimRight(string(text), "="),
		"truncated":       enc(want[:len(want)-1]),
		"trailing byte":   enc(append(append([]byte(nil), want...), 0)),
		"empty":           "",
	} {
		if err := new(Histogram).UnmarshalText([]byte(bad)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram()
	for v := int64(1); v <= 1000; v++ {
		h.Record(v)
	}
	if h.Count() != 1000 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Sum() != 500500 {
		t.Fatalf("Sum = %d", h.Sum())
	}
	if h.Max() != 1000 {
		t.Fatalf("Max = %d", h.Max())
	}
	// Quantiles are bucket upper bounds: within ~6% above the exact
	// value, never below it.
	for _, tc := range []struct {
		q     float64
		exact int64
	}{{0.5, 500}, {0.95, 950}, {0.99, 990}, {1.0, 1000}} {
		got := h.Quantile(tc.q)
		if got < tc.exact {
			t.Errorf("Quantile(%g) = %d, below exact %d", tc.q, got, tc.exact)
		}
		if float64(got) > float64(tc.exact)*1.08 {
			t.Errorf("Quantile(%g) = %d, more than 8%% above exact %d", tc.q, got, tc.exact)
		}
	}
	if got := NewHistogram().Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %d", got)
	}
}

func TestHistogramQuantileNeverExceedsMax(t *testing.T) {
	h := NewHistogram()
	h.Record(1_000_003) // lands mid-bucket; upper bound is above it
	if got := h.Quantile(1); got != 1_000_003 {
		t.Errorf("Quantile(1) = %d, want the exact max 1000003", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	const writers, each = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := int64(0); i < each; i++ {
				h.Record(seed*each + i)
			}
		}(int64(w))
	}
	wg.Wait()
	if h.Count() != writers*each {
		t.Fatalf("Count = %d, want %d", h.Count(), writers*each)
	}
	if h.Max() != writers*each-1 {
		t.Fatalf("Max = %d, want %d", h.Max(), writers*each-1)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for v := int64(0); v < 100; v++ {
		a.Record(v)
		b.Record(v + 1000)
	}
	a.Merge(b)
	if a.Count() != 200 {
		t.Errorf("merged Count = %d", a.Count())
	}
	if a.Max() != 1099 {
		t.Errorf("merged Max = %d", a.Max())
	}
	if got := a.Quantile(0.25); got > 60 {
		t.Errorf("merged p25 = %d, expected low half", got)
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Record(5)
	h.Merge(NewHistogram())
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Error("nil histogram not inert")
	}
}

func TestQuantileSlice(t *testing.T) {
	v := []int64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	cases := []struct {
		q    float64
		want int64
	}{{0, 1}, {0.1, 1}, {0.5, 5}, {0.95, 10}, {0.99, 10}, {1, 10}}
	for _, tc := range cases {
		if got := Quantile(v, tc.q); got != tc.want {
			t.Errorf("Quantile(v, %g) = %d, want %d", tc.q, got, tc.want)
		}
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("Quantile(nil) = %d", got)
	}
	// Input must not be mutated.
	if v[0] != 9 {
		t.Error("Quantile sorted its input in place")
	}
}

func TestBytesNegative(t *testing.T) {
	cases := map[int64]string{
		-1:               "-1 B",
		-1023:            "-1023 B",
		-1537:            "-1.50 KiB",
		-5 << 20:         "-5.00 MiB",
		-(3 << 30):       "-3.00 GiB",
		math.MinInt64:    "-8.00 EiB",
		-(1<<40 + 1<<39): "-1.50 TiB",
		1536:             "1.50 KiB", // positives unchanged
		0:                "0 B",
		math.MaxInt64:    "8.00 EiB",
	}
	for n, want := range cases {
		if got := Bytes(n); got != want {
			t.Errorf("Bytes(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestPhasesSumOtherByName(t *testing.T) {
	p := Phases{PhaseTimes: PhaseTimes{Dur: [NumPhases]time.Duration{
		Chunking: 1 * time.Millisecond, Fingerprint: 2 * time.Millisecond,
		LocalDedup: 3 * time.Millisecond, Reduction: 4 * time.Millisecond,
		LoadExchange: 5 * time.Millisecond, Planning: 6 * time.Millisecond,
		WindowOpen: 7 * time.Millisecond, Put: 8 * time.Millisecond,
		WindowWait: 9 * time.Millisecond, Commit: 10 * time.Millisecond,
		Barrier: 11 * time.Millisecond,
	}, Total: 70 * time.Millisecond}}
	if got := p.Sum(); got != 66*time.Millisecond {
		t.Errorf("Sum = %v", got)
	}
	if got := p.Other(); got != 4*time.Millisecond {
		t.Errorf("Other = %v", got)
	}
	var byName time.Duration
	for _, name := range PhaseNames {
		byName += p.ByName(name)
	}
	if byName != p.Sum() {
		t.Errorf("sum over PhaseNames = %v, Sum() = %v", byName, p.Sum())
	}
	q := Phases{}
	q.Add(p)
	q.Add(p)
	if q.Total != 140*time.Millisecond || q.Dur[Chunking] != 2*time.Millisecond {
		t.Errorf("Add: Total=%v Chunking=%v", q.Total, q.Dur[Chunking])
	}
}

func TestWritePrometheus(t *testing.T) {
	h := NewHistogram()
	h.Record(int64(2 * time.Millisecond))
	d := Dump{
		Rank: 3, DatasetBytes: 1 << 20, TotalChunks: 256,
		Phases: Phases{PhaseTimes: PhaseTimes{Dur: [NumPhases]time.Duration{
			Chunking: time.Millisecond,
		}, Total: 10 * time.Millisecond}},
		PutLatency: h,
	}
	var b strings.Builder
	d.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`dedupcr_dataset_bytes_total{rank="3"} 1048576`,
		`dedupcr_chunks_total{rank="3"} 256`,
		`dedupcr_phase_seconds{rank="3",phase="chunking"} 0.001000000`,
		`dedupcr_phase_seconds{rank="3",phase="total"} 0.010000000`,
		`dedupcr_put_latency_seconds_count{rank="3"} 1`,
		"# TYPE dedupcr_dataset_bytes_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n%s", want, out)
		}
	}
}

func TestDurationFormat(t *testing.T) {
	cases := map[time.Duration]string{
		0:                       "0",
		500 * time.Microsecond:  "500µs",
		2500 * time.Microsecond: "2.50ms",
		1500 * time.Millisecond: "1.500s",
	}
	for d, want := range cases {
		if got := Duration(d); got != want {
			t.Errorf("Duration(%v) = %q, want %q", d, got, want)
		}
	}
}
