package fingerprint

import (
	"encoding/binary"
	"fmt"
)

// Wire format of a Table (all integers big endian):
//
//	u32 F | u32 K | u32 nEntries
//	per entry: 20-byte FP | u32 freq | u16 nRanks | nRanks × u32 rank
//
// Entries appear in strictly ascending fingerprint order, the order the
// columns are kept in, so decoding is a single pass into the columns.
// Designation loads are derivable from the entries and are rebuilt on
// decode, so they are not transmitted.

// MarshalBinary encodes the table for transmission between ranks.
func (t *Table) MarshalBinary() ([]byte, error) {
	t.settle()
	buf := make([]byte, 0, 12+len(t.fps)*(Size+6)+4*len(t.ranks))
	buf = binary.BigEndian.AppendUint32(buf, uint32(t.F))
	buf = binary.BigEndian.AppendUint32(buf, uint32(t.K))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(t.fps)))
	for i, fp := range t.fps {
		buf = append(buf, fp[:]...)
		buf = binary.BigEndian.AppendUint32(buf, t.freq[i])
		ranks := t.rankSpan(i)
		if len(ranks) > 0xFFFF {
			return nil, fmt.Errorf("fingerprint: %d designated ranks exceed wire limit", len(ranks))
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(ranks)))
		for _, r := range ranks {
			buf = binary.BigEndian.AppendUint32(buf, uint32(r))
		}
	}
	return buf, nil
}

// UnmarshalBinary decodes a table encoded by MarshalBinary, replacing
// t's contents. It allocates the columns once, whatever the entry count.
func (t *Table) UnmarshalBinary(data []byte) error {
	if len(data) < 12 {
		return fmt.Errorf("fingerprint: table header truncated (%d bytes)", len(data))
	}
	f := int(int32(binary.BigEndian.Uint32(data)))
	k := int(binary.BigEndian.Uint32(data[4:]))
	n := int(binary.BigEndian.Uint32(data[8:]))
	data = data[12:]
	// The count prefix is peer-controlled: every entry occupies at least
	// Size+6 bytes, so a count the payload cannot hold is corrupt or
	// hostile and must be rejected before it sizes an allocation.
	if n > len(data)/(Size+6) {
		return fmt.Errorf("fingerprint: table claims %d entries in %d bytes", n, len(data))
	}
	// What the fixed entry parts leave is exactly the rank lists of a
	// well-formed table, so the rank column is sized once.
	fps := make([]FP, n)
	freq := make([]uint32, n)
	off := make([]uint32, n+1)
	ranks := make([]int32, (len(data)-n*(Size+6))/4)
	for i := 0; i < n; i++ {
		if len(data) < Size+6 {
			return fmt.Errorf("fingerprint: entry %d truncated", i)
		}
		copy(fps[i][:], data[:Size])
		freq[i] = binary.BigEndian.Uint32(data[Size:])
		nr := int(binary.BigEndian.Uint16(data[Size+4:]))
		data = data[Size+6:]
		// The second bound holds whenever the entries after this one
		// still fit in what is left.
		if len(data) < 4*nr || int(off[i])+nr > len(ranks) {
			return fmt.Errorf("fingerprint: entry %d rank list truncated", i)
		}
		at := ranks[off[i] : int(off[i])+nr]
		for j := range at {
			at[j] = int32(binary.BigEndian.Uint32(data[4*j:]))
		}
		data = data[4*nr:]
		off[i+1] = off[i] + uint32(nr)
		if i > 0 && !fps[i-1].Less(fps[i]) {
			return fmt.Errorf("fingerprint: entry %s duplicate or out of fingerprint order", fps[i].Short())
		}
	}
	if len(data) != 0 {
		return fmt.Errorf("fingerprint: %d trailing bytes after table", len(data))
	}
	load, err := countLoad(ranks)
	if err != nil {
		return err
	}
	*t = Table{F: f, K: k, fps: fps, freq: freq, off: off, ranks: ranks, load: load}
	return nil
}

// countLoad rebuilds the designation loads of a decoded rank column,
// rejecting rank ids outside [0, maxRanks) before they size the array.
func countLoad(ranks []int32) ([]int32, error) {
	top := int32(-1)
	for _, r := range ranks {
		if r < 0 || r >= maxRanks {
			return nil, fmt.Errorf("fingerprint: designated rank %d outside [0, %d)", r, maxRanks)
		}
		top = max(top, r)
	}
	load := make([]int32, top+1)
	for _, r := range ranks {
		load[r]++
	}
	return load, nil
}

// MergeBinary is one HMERGE step on encoded tables, in the shape of a
// collectives.MergeFunc: it decodes acc and other, folds other into acc
// with Merge and returns the encoded result. It is the reduction
// operator of every fingerprint Allreduce.
func MergeBinary(acc, other []byte) ([]byte, error) {
	var a, b Table
	if err := a.UnmarshalBinary(acc); err != nil {
		return nil, err
	}
	if err := b.UnmarshalBinary(other); err != nil {
		return nil, err
	}
	a.Merge(&b)
	return a.MarshalBinary()
}
