package wiresym_test

// Coverage proof for the real wire codecs: the extractor must be able
// to model every production encoder/decoder pair — an opaque extraction
// would silently skip the pair, and the symmetry guarantee would be
// vacuous for exactly the codecs that matter. This test loads the real
// packages and asserts each known codec family extracts on both sides
// and matches.

import (
	"os"
	"path/filepath"
	"testing"

	"dedupcr/internal/analysis"
	"dedupcr/internal/analysis/load"
	"dedupcr/internal/analysis/wiresym"
)

// realCodecs maps each production package to the codec families wiresym
// must prove symmetric in it.
var realCodecs = map[string][]string{
	"dedupcr/internal/storage":     {"segindex", "manifest"},
	"dedupcr/internal/collectives": {"abortmsg", "tracecontext"},
	"dedupcr/internal/chunk":       {"recipebinary"},
	"dedupcr/internal/fingerprint": {"fp", "tablebinary"},
}

func TestRealCodecCoverage(t *testing.T) {
	root := moduleRoot(t)
	for pkgPath, families := range realCodecs {
		pkgs, err := load.Packages(root, pkgPath)
		if err != nil {
			t.Fatalf("load %s: %v", pkgPath, err)
		}
		if len(pkgs) != 1 {
			t.Fatalf("load %s: got %d packages", pkgPath, len(pkgs))
		}
		p := pkgs[0]
		pass := &analysis.Pass{
			Analyzer:  wiresym.Analyzer,
			Fset:      p.Fset,
			Files:     p.Files,
			Pkg:       p.Types,
			TypesInfo: p.Info,
			Report:    func(analysis.Diagnostic) {},
		}
		byBase := make(map[string]wiresym.Pair)
		for _, pair := range wiresym.Pairs(pass) {
			byBase[pair.Base] = pair
		}
		for _, fam := range families {
			pair, ok := byBase[fam]
			if !ok {
				t.Errorf("%s: codec family %q not paired", pkgPath, fam)
				continue
			}
			if !pair.EncOK {
				t.Errorf("%s: %s encoder %s not modeled by the extractor", pkgPath, fam, pair.EncName)
			}
			if !pair.DecOK {
				t.Errorf("%s: %s decoder %s not modeled by the extractor", pkgPath, fam, pair.DecName)
			}
			if pair.EncOK && pair.DecOK && !pair.Match {
				t.Errorf("%s: %s asymmetric:\n  %s writes [%s]\n  %s reads  [%s]",
					pkgPath, fam, pair.EncName, pair.EncOps, pair.DecName, pair.DecOps)
			}
			if pair.Match && pair.EncOps == "" {
				t.Errorf("%s: %s extracted an empty wire sequence — extractor saw no ops", pkgPath, fam)
			}
		}
	}
}

// moduleRoot walks up from the test's working directory to go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}
