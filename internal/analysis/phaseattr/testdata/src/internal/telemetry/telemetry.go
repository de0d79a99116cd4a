// Package telemetry is a phaseattr fixture standing in for the in-band
// metrics gathers: its path suffix puts it in rule 1 scope too.
package telemetry

import "internal/collectives"

// gatherDumpUnphased is the dump gather with no phase of its own: a
// failure would be blamed on the pipeline's last phase, the barrier.
func gatherDumpUnphased(c collectives.Comm, enc []byte) ([][]byte, error) {
	return collectives.Gather(c, 0, enc) // want "blocking collective Gather without a preceding NotePhase"
}

// gather publishes the gather's own phase before blocking: clean.
func gather(c collectives.Comm, phase string, enc []byte) ([][]byte, error) {
	collectives.NotePhase(c, phase)
	return collectives.Gather(c, 0, enc)
}

// gatherDump goes through the publishing helper and never blocks
// itself: clean.
func gatherDump(c collectives.Comm, enc []byte) ([][]byte, error) {
	return gather(c, "dump-telemetry", enc)
}

// notePublisher calls a helper that publishes, then blocks: the helper
// call counts as the publication.
func notePublisher(c collectives.Comm, enc []byte) error {
	if _, err := gather(c, "dump-telemetry", enc); err != nil {
		return err
	}
	return collectives.Barrier(c)
}
