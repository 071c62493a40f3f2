package gpu

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// TestProtocolAgnostic keeps the CU protocol-agnostic: it reaches its L1
// only through coherence.L1, so neither protocol package may appear
// among the non-test imports of this package or of anything it imports
// from the module.
func TestProtocolAgnostic(t *testing.T) {
	const module = "denovogpu/"
	forbidden := map[string]bool{
		"denovogpu/internal/denovo": true,
		"denovogpu/internal/gpucoh": true,
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	// via records the importer each package was first reached from,
	// so a failure names the chain.
	via := map[string]string{"denovogpu/internal/gpu": ""}
	queue := []string{"denovogpu/internal/gpu"}
	for len(queue) > 0 {
		path := queue[0]
		queue = queue[1:]
		pkg, err := build.ImportDir(filepath.Join(root, strings.TrimPrefix(path, module)), 0)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, imp := range pkg.Imports {
			if !strings.HasPrefix(imp, module) {
				continue
			}
			if _, seen := via[imp]; seen {
				continue
			}
			via[imp] = path
			if forbidden[imp] {
				chain := imp
				for p := path; p != ""; p = via[p] {
					chain = p + " -> " + chain
				}
				t.Errorf("internal/gpu depends on a protocol package: %s", chain)
				continue
			}
			queue = append(queue, imp)
		}
	}
	if len(via) < 3 {
		t.Fatalf("walked only %d packages; the import walk is broken", len(via))
	}
}
