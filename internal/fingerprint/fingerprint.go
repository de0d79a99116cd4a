// Package fingerprint provides content fingerprints for chunks and the
// frequency-merge machinery (HMERGE) at the heart of the collective
// deduplication scheme: a bounded table of the F most frequent fingerprints,
// each mapped to its global frequency and a load-balanced list of at most K
// designated ranks.
package fingerprint

import (
	"cmp"
	"crypto/sha1"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// Size is the byte length of a fingerprint: 160 bits, the width of the
// paper's SHA-1 digest, kept by every function so every wire, index and
// metadata format has one fingerprint width.
const Size = 20

// FP is a content fingerprint of a chunk.
type FP [Size]byte

// Func identifies the function a checkpoint's fingerprints were computed
// with. It is a property of the checkpoint: the recipe records it, and
// every verifier hashes with the recipe's function, so checkpoints
// written before a change of function stay restorable.
type Func uint8

const (
	// SHA256 is SHA-256 truncated to its first 160 bits, the function of
	// every new checkpoint. It is the zero Func.
	SHA256 Func = 0
	// SHA1 is the paper's SHA-1, kept to read checkpoints written before
	// the switch to SHA256.
	SHA1 Func = 1
)

// Current is the function new dumps fingerprint with.
const Current = SHA256

// Valid reports whether h names a known function.
func (h Func) Valid() bool { return h == SHA256 || h == SHA1 }

// String names the function.
func (h Func) String() string {
	switch h {
	case SHA256:
		return "sha256/160"
	case SHA1:
		return "sha1"
	}
	return fmt.Sprintf("func(%d)", uint8(h))
}

// Of computes the fingerprint of data under h. It panics on an invalid
// Func; decoders reject unknown ids before they reach a verifier.
func (h Func) Of(data []byte) FP {
	switch h {
	case SHA256:
		s := sha256.Sum256(data)
		return FP(s[:Size])
	case SHA1:
		return FP(sha1.Sum(data))
	}
	panic(fmt.Sprintf("fingerprint: unknown function %d", uint8(h)))
}

// Of computes the fingerprint of data under the Current function.
func Of(data []byte) FP { return Current.Of(data) }

// BatchOf fingerprints every span into dst (dst[i] = Of(spans[i])).
// Each digest is computed on the stack and written into dst[i], so a
// batch allocates nothing; the chunk package's hash pool calls it per
// shard while the spans are still cache-resident from the boundary scan.
// Results are bit-identical to per-span Of calls (the batch tests and
// fuzzer pin this); dst must hold at least len(spans) entries.
func BatchOf(dst []FP, spans ...[]byte) {
	if len(dst) < len(spans) {
		panic(fmt.Sprintf("fingerprint: BatchOf dst %d shorter than spans %d", len(dst), len(spans)))
	}
	for i, s := range spans {
		dst[i] = Of(s)
	}
}

// String returns the hex form of the fingerprint.
func (f FP) String() string { return hex.EncodeToString(f[:]) }

// Short returns the first 8 hex digits, for logs and tests.
func (f FP) Short() string { return hex.EncodeToString(f[:4]) }

// Less orders fingerprints lexicographically. Used for deterministic
// iteration orders in the reduction.
func (f FP) Less(g FP) bool { return f.Compare(g) < 0 }

// Compare returns -1, 0 or +1 comparing f and g lexicographically. It
// compares big-endian words, which orders exactly like the bytes.
func (f FP) Compare(g FP) int {
	be := binary.BigEndian
	if c := cmp.Compare(be.Uint64(f[0:]), be.Uint64(g[0:])); c != 0 {
		return c
	}
	if c := cmp.Compare(be.Uint64(f[8:]), be.Uint64(g[8:])); c != 0 {
		return c
	}
	return cmp.Compare(be.Uint32(f[16:]), be.Uint32(g[16:]))
}

// Marshal appends the wire form of f to dst and returns the result.
func (f FP) Marshal(dst []byte) []byte { return append(dst, f[:]...) }

// UnmarshalFP reads a fingerprint from src, returning it and the rest.
func UnmarshalFP(src []byte) (FP, []byte, error) {
	var f FP
	if len(src) < Size {
		return f, nil, fmt.Errorf("fingerprint: short buffer: %d bytes", len(src))
	}
	copy(f[:], src[:Size])
	return f, src[Size:], nil
}

// Bucket maps a fingerprint to one of n buckets using its leading bytes.
// Used to shard fingerprint tables.
func (f FP) Bucket(n int) int {
	if n <= 1 {
		return 0
	}
	v := binary.BigEndian.Uint64(f[:8])
	return int(v % uint64(n))
}
