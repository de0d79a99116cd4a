package metrics

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
)

// Histogram bucket geometry: values below 2^histLinearBits are recorded
// exactly in their own bucket; above that, each power-of-two octave is
// subdivided into 2^histLinearBits linear sub-buckets (HDR-histogram
// style), bounding the relative quantile error at 1/2^histLinearBits
// (~6%) while keeping the bucket array small and fixed-size.
const (
	histLinearBits = 4
	histSub        = 1 << histLinearBits // sub-buckets per octave
	// 64-bit values span octaves histLinearBits..63, each contributing
	// histSub buckets on top of the histSub exact low buckets.
	histBuckets = histSub + (64-histLinearBits)*histSub
)

// Histogram is a lock-free HDR-style histogram of non-negative int64
// samples (latencies in nanoseconds, message sizes, ...). All methods are
// safe for concurrent use; Record is a single atomic add on the hot path.
// The zero value is ready to use.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return new(Histogram) }

// bucketOf maps a sample to its bucket index. Negative samples clamp to
// bucket 0 (durations and sizes cannot meaningfully be negative).
func bucketOf(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // position of the top bit, >= histLinearBits
	sub := int((v >> (uint(exp) - histLinearBits)) & (histSub - 1))
	return histSub + (exp-histLinearBits)*histSub + sub
}

// bucketUpper returns the largest value mapping into bucket i — what
// Quantile reports, so quantiles never under-estimate.
func bucketUpper(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	exp := histLinearBits + (i-histSub)/histSub
	sub := (i - histSub) % histSub
	width := int64(1) << (uint(exp) - histLinearBits)
	base := int64(1) << uint(exp)
	upper := base + int64(sub+1)*width - 1
	if upper < 0 { // top octave overflows; clamp
		return math.MaxInt64
	}
	return upper
}

// Record adds one sample.
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	h.counts[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all recorded samples.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Max returns the largest recorded sample, exactly (not bucket-rounded).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Mean returns the average sample, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.Count() == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(h.Count())
}

// Quantile returns an upper bound for the q-quantile (0 <= q <= 1) of the
// recorded samples, accurate to the bucket width (~6% relative error).
// It returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Nearest-rank: the smallest bucket whose cumulative count reaches
	// ceil(q * total), with at least one sample.
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.counts[i].Load()
		if cum >= rank {
			u := bucketUpper(i)
			if m := h.max.Load(); u > m {
				return m // never report beyond the observed maximum
			}
			return u
		}
	}
	return h.max.Load()
}

// CountLE returns how many recorded samples are known to be <= v: the
// cumulative count of every bucket whose upper bound is at most v.
// Samples sharing the bucket that contains v are not counted, so the
// result may undercount by up to one bucket width (~6% of v) — the same
// resolution bound Quantile carries, in the opposite direction. The
// counts are monotone in v, which is what the Prometheus histogram
// exposition requires of its cumulative buckets.
func (h *Histogram) CountLE(v int64) int64 {
	if h == nil || v < 0 {
		return 0
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		if bucketUpper(i) > v {
			break
		}
		cum += h.counts[i].Load()
	}
	return cum
}

// Histogram wire format (all integers big endian):
//
//	u8 version=1 | i64 count | i64 sum | i64 max | u32 nNonZero
//	nNonZero × (u32 bucketIndex, i64 bucketCount)
//
// Only non-zero buckets travel: put-latency histograms of one dump touch
// a handful of octaves out of the ~976 fixed buckets.
const histWireVersion = 1

// MarshalBinary encodes the histogram for transmission between ranks
// (the telemetry gather). Safe to call concurrently with Record; the
// snapshot is per-bucket atomic, not globally consistent.
func (h *Histogram) MarshalBinary() ([]byte, error) {
	buf := []byte{histWireVersion}
	buf = binary.BigEndian.AppendUint64(buf, uint64(h.Count()))
	buf = binary.BigEndian.AppendUint64(buf, uint64(h.Sum()))
	buf = binary.BigEndian.AppendUint64(buf, uint64(h.Max()))
	var idx []int
	if h != nil {
		for i := 0; i < histBuckets; i++ {
			if h.counts[i].Load() != 0 {
				idx = append(idx, i)
			}
		}
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(idx)))
	for _, i := range idx {
		buf = binary.BigEndian.AppendUint32(buf, uint32(i))
		buf = binary.BigEndian.AppendUint64(buf, uint64(h.counts[i].Load()))
	}
	return buf, nil
}

// UnmarshalBinary decodes a histogram encoded by MarshalBinary,
// replacing h's contents.
func (h *Histogram) UnmarshalBinary(data []byte) error {
	if len(data) < 29 {
		return fmt.Errorf("metrics: histogram header truncated (%d bytes)", len(data))
	}
	if data[0] != histWireVersion {
		return fmt.Errorf("metrics: histogram wire version %d, want %d", data[0], histWireVersion)
	}
	*h = Histogram{}
	h.count.Store(int64(binary.BigEndian.Uint64(data[1:])))
	h.sum.Store(int64(binary.BigEndian.Uint64(data[9:])))
	h.max.Store(int64(binary.BigEndian.Uint64(data[17:])))
	n := int(binary.BigEndian.Uint32(data[25:]))
	data = data[29:]
	if len(data) != 12*n {
		return fmt.Errorf("metrics: histogram wants %d bucket bytes, has %d", 12*n, len(data))
	}
	for j := 0; j < n; j++ {
		i := int(binary.BigEndian.Uint32(data[12*j:]))
		if i < 0 || i >= histBuckets {
			return fmt.Errorf("metrics: histogram bucket index %d out of range", i)
		}
		h.counts[i].Store(int64(binary.BigEndian.Uint64(data[12*j+4:])))
	}
	return nil
}

// MarshalText encodes the histogram as the base64 of its MarshalBinary
// form, so records holding a *Histogram round-trip exactly through
// encoding/json (the telemetry codec).
func (h *Histogram) MarshalText() ([]byte, error) {
	b, err := h.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return base64.StdEncoding.AppendEncode(nil, b), nil
}

// UnmarshalText decodes a histogram encoded by MarshalText, as strictly
// as UnmarshalBinary.
func (h *Histogram) UnmarshalText(text []byte) error {
	b, err := base64.StdEncoding.Strict().AppendDecode(nil, text)
	if err != nil {
		return fmt.Errorf("metrics: histogram text: %w", err)
	}
	return h.UnmarshalBinary(b)
}

// Merge folds other's samples into h. Max merges exactly; buckets add.
func (h *Histogram) Merge(other *Histogram) {
	if h == nil || other == nil {
		return
	}
	for i := range other.counts {
		if n := other.counts[i].Load(); n != 0 {
			h.counts[i].Add(n)
		}
	}
	h.count.Add(other.count.Load())
	h.sum.Add(other.sum.Load())
	for {
		cur, o := h.max.Load(), other.max.Load()
		if o <= cur || h.max.CompareAndSwap(cur, o) {
			return
		}
	}
}

// Quantile returns the exact q-quantile (0 <= q <= 1, nearest-rank) of v,
// or 0 for an empty slice. v is not modified.
func Quantile(v []int64, q float64) int64 {
	if len(v) == 0 {
		return 0
	}
	sorted := append([]int64(nil), v...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}
