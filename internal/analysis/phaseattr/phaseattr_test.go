package phaseattr_test

import (
	"testing"

	"dedupcr/internal/analysis/analysistest"
	"dedupcr/internal/analysis/phaseattr"
)

func TestPhaseAttr(t *testing.T) {
	analysistest.Run(t, phaseattr.Analyzer, "internal/core", "internal/telemetry", "util")
}
