package telemetry

import (
	"encoding/binary"
	"fmt"
	"time"

	"dedupcr/internal/metrics"
)

// dumpWireVersion tags the binary layout of an encoded metrics.Dump so a
// mixed-version group fails loudly instead of mis-decoding. Version 2
// appended PutRetries to the fixed counter block; version 3 introduced
// the restore metrics family (EncodeRestore/DecodeRestore) without
// changing the dump layout.
const dumpWireVersion = 3

// EncodeDump serializes one rank's dump metrics for the in-band gather:
// a version byte, the fixed counters and phase durations as big-endian
// int64s (the dump phases in table order, then the total), the
// variable-length duration slices with uint32 length prefixes, the
// barrier-exit wall stamp (unix nanoseconds, 0 when unset) and the
// put-latency histogram (flag byte + length-prefixed sparse encoding,
// absent when nil).
func EncodeDump(d metrics.Dump) ([]byte, error) {
	var buf []byte
	i64 := func(v int64) { buf = binary.BigEndian.AppendUint64(buf, uint64(v)) }
	durs := func(v []time.Duration) {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(v)))
		for _, d := range v {
			i64(int64(d))
		}
	}

	buf = append(buf, dumpWireVersion)
	i64(int64(d.Rank))
	i64(d.DatasetBytes)
	i64(int64(d.TotalChunks))
	i64(int64(d.LocalUniqueChunks))
	i64(d.HashedBytes)
	i64(int64(d.StoredChunks))
	i64(d.StoredBytes)
	i64(int64(d.SentChunks))
	i64(d.SentBytes)
	i64(int64(d.RecvChunks))
	i64(d.RecvBytes)
	i64(d.ReductionBytes)
	i64(int64(d.ReductionRounds))
	i64(d.LoadExchangeBytes)
	i64(d.WindowBytes)
	i64(d.UniqueContentBytes)
	i64(d.PutRetries)

	p := d.Phases
	for _, ph := range metrics.DumpPipeline.Phases() {
		i64(int64(p.Dur[ph]))
	}
	i64(int64(p.Total))
	durs(p.ReductionRoundTimes)
	durs(p.FingerprintWorkers)
	durs(p.PutWorkers)

	if d.BarrierExit.IsZero() {
		i64(0)
	} else {
		i64(d.BarrierExit.UnixNano())
	}

	if d.PutLatency == nil {
		buf = append(buf, 0)
	} else {
		buf = append(buf, 1)
		hb, err := d.PutLatency.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("telemetry: encode put latency: %w", err)
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(hb)))
		buf = append(buf, hb...)
	}
	return buf, nil
}

// DecodeDump reverses EncodeDump.
func DecodeDump(data []byte) (metrics.Dump, error) {
	var d metrics.Dump
	if len(data) == 0 {
		return d, fmt.Errorf("telemetry: empty dump encoding")
	}
	if data[0] != dumpWireVersion {
		return d, fmt.Errorf("telemetry: dump wire version %d, want %d", data[0], dumpWireVersion)
	}
	data = data[1:]
	fail := func() (metrics.Dump, error) {
		return metrics.Dump{}, fmt.Errorf("telemetry: truncated dump encoding")
	}
	i64 := func() (int64, bool) {
		if len(data) < 8 {
			return 0, false
		}
		v := int64(binary.BigEndian.Uint64(data))
		data = data[8:]
		return v, true
	}
	durs := func() ([]time.Duration, bool) {
		if len(data) < 4 {
			return nil, false
		}
		n := int(binary.BigEndian.Uint32(data))
		data = data[4:]
		if n == 0 {
			return nil, true
		}
		if len(data) < 8*n {
			return nil, false
		}
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(binary.BigEndian.Uint64(data[8*i:]))
		}
		data = data[8*n:]
		return out, true
	}

	ints := make([]int64, 17)
	for i := range ints {
		v, ok := i64()
		if !ok {
			return fail()
		}
		ints[i] = v
	}
	d.Rank = int(ints[0])
	d.DatasetBytes = ints[1]
	d.TotalChunks = int(ints[2])
	d.LocalUniqueChunks = int(ints[3])
	d.HashedBytes = ints[4]
	d.StoredChunks = int(ints[5])
	d.StoredBytes = ints[6]
	d.SentChunks = int(ints[7])
	d.SentBytes = ints[8]
	d.RecvChunks = int(ints[9])
	d.RecvBytes = ints[10]
	d.ReductionBytes = ints[11]
	d.ReductionRounds = int(ints[12])
	d.LoadExchangeBytes = ints[13]
	d.WindowBytes = ints[14]
	d.UniqueContentBytes = ints[15]
	d.PutRetries = ints[16]

	p := &d.Phases
	for _, ph := range metrics.DumpPipeline.Phases() {
		v, ok := i64()
		if !ok {
			return fail()
		}
		p.Dur[ph] = time.Duration(v)
	}
	total, ok := i64()
	if !ok {
		return fail()
	}
	p.Total = time.Duration(total)

	if p.ReductionRoundTimes, ok = durs(); !ok {
		return fail()
	}
	if p.FingerprintWorkers, ok = durs(); !ok {
		return fail()
	}
	if p.PutWorkers, ok = durs(); !ok {
		return fail()
	}

	exit, ok := i64()
	if !ok {
		return fail()
	}
	if exit != 0 {
		d.BarrierExit = time.Unix(0, exit)
	}

	if len(data) < 1 {
		return fail()
	}
	flag := data[0]
	data = data[1:]
	switch flag {
	case 0:
	case 1:
		if len(data) < 4 {
			return fail()
		}
		n := int(binary.BigEndian.Uint32(data))
		data = data[4:]
		if len(data) < n {
			return fail()
		}
		h := metrics.NewHistogram()
		if err := h.UnmarshalBinary(data[:n]); err != nil {
			return metrics.Dump{}, fmt.Errorf("telemetry: decode put latency: %w", err)
		}
		d.PutLatency = h
		data = data[n:]
	default:
		return metrics.Dump{}, fmt.Errorf("telemetry: bad put-latency flag %d", flag)
	}
	if len(data) != 0 {
		return metrics.Dump{}, fmt.Errorf("telemetry: %d trailing bytes after dump encoding", len(data))
	}
	return d, nil
}
