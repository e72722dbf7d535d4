package chunkalias

import (
	"testing"

	"forkbase/internal/analysis/analysistest"
)

func TestChunkalias(t *testing.T) {
	analysistest.Run(t, Analyzer, "chunkalias/use", "chunkalias/store")
}
