package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"

	"dedupcr/internal/metrics"
)

// wireVersion tags the encoding of every per-rank telemetry record so a
// mixed-version group fails loudly instead of mis-decoding. Versions 1-3
// were per-kind binary layouts; 4 is the JSON envelope below.
const wireVersion = 4

// record lists the per-rank records the in-band gathers carry.
type record interface {
	metrics.Dump | metrics.Restore | metrics.StoreStats
}

// envelope is the wire form of one record. Kind and Version make the
// encoding self-describing. Phases is the sender's phase table: records
// index PhaseTimes.Dur by table position, and encoding/json silently pads
// or drops array elements on a length mismatch, so decode compares the
// tables by name and rejects a group whose tables differ.
type envelope struct {
	Kind    string
	Version int
	Phases  []string
	Record  json.RawMessage
}

// phaseTable lists every phase-table name in table order.
var phaseTable = func() []string {
	out := make([]string, metrics.NumPhases)
	for p := range out {
		out[p] = metrics.Phase(p).String()
	}
	return out
}()

// kindOf names the record kind T on the wire.
func kindOf[T record]() string {
	var zero T
	switch any(zero).(type) {
	case metrics.Dump:
		return "dump"
	case metrics.Restore:
		return "restore"
	default:
		return "store"
	}
}

// encode serializes one rank's record for the in-band gather. Encoding is
// deterministic: the same record always yields the same bytes.
func encode[T record](rec T) ([]byte, error) {
	body, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	return json.Marshal(envelope{Kind: kindOf[T](), Version: wireVersion, Phases: phaseTable, Record: body})
}

// decode reverses encode. It is strict: empty input, truncation, trailing
// bytes, unknown fields, a missing record and a kind, version or phase
// table other than this binary's are all rejected.
func decode[T record](data []byte) (T, error) {
	var rec, zero T
	kind := kindOf[T]()
	if len(data) == 0 {
		return rec, fmt.Errorf("telemetry: empty %s encoding", kind)
	}
	var env envelope
	if err := strictUnmarshal(data, &env); err != nil {
		return rec, fmt.Errorf("telemetry: %s envelope: %w", kind, err)
	}
	switch {
	case env.Kind != kind:
		return rec, fmt.Errorf("telemetry: record kind %q, want %q", env.Kind, kind)
	case env.Version != wireVersion:
		return rec, fmt.Errorf("telemetry: %s wire version %d, want %d", kind, env.Version, wireVersion)
	case !slices.Equal(env.Phases, phaseTable):
		return rec, fmt.Errorf("telemetry: %s sender's phase table %q differs from %q", kind, env.Phases, phaseTable)
	case len(env.Record) == 0 || string(env.Record) == "null":
		return rec, fmt.Errorf("telemetry: %s envelope carries no record", kind)
	}
	if err := strictUnmarshal(env.Record, &rec); err != nil {
		return zero, fmt.Errorf("telemetry: %s record: %w", kind, err)
	}
	return rec, nil
}

// strictUnmarshal decodes exactly one JSON value filling v, rejecting
// unknown fields and any byte after the value.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if n := int64(len(data)) - dec.InputOffset(); n != 0 {
		return fmt.Errorf("%d trailing bytes", n)
	}
	return nil
}
