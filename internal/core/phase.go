package core

import (
	"time"

	"dedupcr/internal/collectives"
	"dedupcr/internal/metrics"
	"dedupcr/internal/obs"
	"dedupcr/internal/trace"
)

// PhaseScope records the pipeline phases of one collective dump or
// restore on one rank. Entering a phase is the single call that
// publishes it everywhere a phase is observed:
//
//   - the error-attribution slot a failure is reported under (Current);
//   - the transport, through collectives.NotePhase: the flight-recorder
//     event, the goroutine's pprof label and EnterPhase, which
//     phase-scoped fault injection keys on;
//   - a trace span named after the phase-table entry;
//   - the phase-table slot of the operation's metrics.PhaseTimes, which
//     accumulates the phase's wall time when it ends.
//
// The dump, the plain restore and the hybrid restore all record their
// phases through it, so span names, flight events, fault-injection phases
// and metrics cannot drift apart.
type PhaseScope struct {
	c     collectives.Comm
	rec   *trace.Recorder
	times *metrics.PhaseTimes
	cur   string
}

// NewPhaseScope opens a scope recording into times. rec may be nil (no
// spans).
func NewPhaseScope(c collectives.Comm, rec *trace.Recorder, times *metrics.PhaseTimes) *PhaseScope {
	return &PhaseScope{c: c, rec: rec, times: times}
}

// Begin enters phase p and returns the function that ends it. Re-entering
// a phase accumulates into the same slot.
func (s *PhaseScope) Begin(p metrics.Phase) (end func()) {
	name := p.String()
	s.cur = name
	collectives.NotePhase(s.c, name)
	sp := s.rec.Begin(name)
	start := time.Now()
	return func() {
		s.times.Dur[p] += time.Since(start)
		sp.End()
	}
}

// Current returns the name of the phase entered last, "" before the
// first: the phase a failure surfacing now is attributed to.
func (s *PhaseScope) Current() string { return s.cur }

// Close ends the scope: the pipeline goroutine's phase label is dropped,
// so later CPU samples are not attributed to the last phase.
func (s *PhaseScope) Close() { obs.ClearPhaseLabel() }
