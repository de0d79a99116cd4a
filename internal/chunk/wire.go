package chunk

import (
	"encoding/binary"
	"fmt"

	"dedupcr/internal/fingerprint"
)

// Wire format of a Recipe (big endian):
//
//	[recipeMagic | u8 function id] | u32 nChunks | nChunks × (20-byte FP | u32 size)
//
// The bracketed prefix names the fingerprint function. A recipe without
// it is a legacy recipe, written before the function was recorded, and
// its fingerprints are SHA-1; SHA-1 recipes are still written that way,
// so legacy checkpoints re-persist byte for byte. Read as a legacy count,
// the magic would be 2^32-1 chunks, a 100 GiB recipe, so the two forms
// cannot be confused.
const recipeMagic = "\xff\xff\xff\xff"

// MarshalBinary encodes the recipe for persistence or transmission.
func (r Recipe) MarshalBinary() ([]byte, error) {
	if !r.Hash.Valid() {
		return nil, fmt.Errorf("chunk: recipe names unknown fingerprint function %d", r.Hash)
	}
	if len(r.Sizes) != len(r.FPs) {
		return nil, fmt.Errorf("chunk: recipe has %d fingerprints but %d sizes", len(r.FPs), len(r.Sizes))
	}
	buf := make([]byte, 0, 9+r.Len()*(fingerprint.Size+4))
	if r.Hash != fingerprint.SHA1 {
		buf = append(buf, recipeMagic...)
		buf = append(buf, byte(r.Hash))
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(r.Len()))
	for i, fp := range r.FPs {
		buf = append(buf, fp[:]...)
		buf = binary.BigEndian.AppendUint32(buf, uint32(r.Sizes[i]))
	}
	return buf, nil
}

// UnmarshalBinary decodes a recipe encoded by MarshalBinary, or a legacy
// recipe without the function prefix.
func (r *Recipe) UnmarshalBinary(data []byte) error {
	_, err := r.decode(data)
	return err
}

// decode parses a recipe from the front of data, returning the remainder.
func (r *Recipe) decode(data []byte) ([]byte, error) {
	r.Hash = fingerprint.SHA1
	if len(data) > len(recipeMagic) && string(data[:len(recipeMagic)]) == recipeMagic {
		r.Hash = fingerprint.Func(data[len(recipeMagic)])
		data = data[len(recipeMagic)+1:]
		if !r.Hash.Valid() {
			return nil, fmt.Errorf("chunk: recipe names unknown fingerprint function %d", r.Hash)
		}
	}
	if len(data) < 4 {
		return nil, fmt.Errorf("chunk: recipe header truncated (%d bytes)", len(data))
	}
	n := int(binary.BigEndian.Uint32(data))
	data = data[4:]
	if need := n * (fingerprint.Size + 4); len(data) < need {
		return nil, fmt.Errorf("chunk: recipe body truncated: need %d bytes, have %d", need, len(data))
	}
	r.FPs = make([]fingerprint.FP, n)
	r.Sizes = make([]int32, n)
	for i := 0; i < n; i++ {
		copy(r.FPs[i][:], data[:fingerprint.Size])
		r.Sizes[i] = int32(binary.BigEndian.Uint32(data[fingerprint.Size:]))
		data = data[fingerprint.Size+4:]
	}
	return data, nil
}

// DecodeRecipe parses a recipe from the front of data, returning it and
// the unconsumed remainder.
func DecodeRecipe(data []byte) (Recipe, []byte, error) {
	var r Recipe
	rest, err := r.decode(data)
	return r, rest, err
}
