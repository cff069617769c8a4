package repro

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/nn"
)

// TestArtifactsLoad: every committed model under artifacts/ must load. The
// experiments harness treats an unreadable cache file as a miss and retrains
// for minutes, rewriting the tracked file, so a truncated or stale artifact
// fails here instead.
func TestArtifactsLoad(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("artifacts", "*.gob"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no artifacts/*.gob found")
	}
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		m, err := nn.Load(f)
		f.Close()
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		if m.NumParams() == 0 {
			t.Errorf("%s: loaded a model with no parameters", p)
		}
	}
}
