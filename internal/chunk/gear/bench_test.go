package gear

import (
	"testing"

	"dedupcr/internal/chunk"
)

// BenchmarkGearCuts measures the selected boundary scan (unrolled on
// amd64/arm64, generic under purego) — compare against
// BenchmarkGenericCuts to see the fast path's margin.
func BenchmarkGearCuts(b *testing.B) {
	buf := testBuf(1, 1<<22)
	c := New(4096)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Cuts(buf)
	}
}

// BenchmarkGenericCuts measures the reference scan regardless of the
// build's selection, via the test-only scan harness.
func BenchmarkGenericCuts(b *testing.B) {
	buf := testBuf(1, 1<<22)
	c := New(4096)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cutsWith(cutGeneric, c, buf)
	}
}

// BenchmarkGearSplit measures boundary scan + batched fingerprinting,
// the full serial hot path a Parallelism=1 dump runs per rank.
func BenchmarkGearSplit(b *testing.B) {
	buf := testBuf(1, 1<<22)
	c := New(4096)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chunk.FromCuts(buf, c.Cuts(buf))
	}
}
