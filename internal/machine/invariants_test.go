// Sanitizer identity tests: arming Config.Invariants must not change a
// single byte of any report. The sanitizer's hot-path assertions and
// quiesced-state checks only observe — they schedule no events and
// touch no counters — so an armed run of a pinned (workload, config)
// pair must reproduce its committed golden exactly, and an armed run of
// any other cell must reproduce the unarmed run. A timing or accounting
// side effect in any check shows up here as a report diff.
package machine_test

import (
	"bytes"
	"os"
	"testing"

	"denovogpu"
)

// invariantsCells covers both protocols, both models, the lazy
// ablation's home config, a per-phase specialized graph cell (whose
// phase-transition drains run the quiesced-state suites at every
// protocol switch), and the 2-device machine, without slowing tier-1
// down. A pinned cell's armed report must equal its golden; the cells
// without a golden (devices 2 included) compare an armed run against
// an unarmed one in-process.
var invariantsCells = []struct {
	workload, config string
	devices          int
	pinned           bool
}{
	{"UTS", "DH", 1, true},
	{"SPM_L", "DD", 1, true},
	{"SPM_L", "DH", 1, true},
	{"LAVA", "GD", 1, true},
	{"ST", "GH", 1, true},
	{"BFS", "SPEC", 1, true},
	{"TB_LG", "DD", 1, false},
	{"SPM_G", "GH", 1, false},
	{"TB_LGx2", "DD", 2, false},
}

func TestInvariantsGoldenIdentical(t *testing.T) {
	for _, c := range invariantsCells {
		cfg, err := denovogpu.ConfigByName(c.config)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Devices = c.devices
		t.Run(c.workload+"/"+cfg.Name(), func(t *testing.T) {
			t.Parallel()
			var want []byte
			if c.pinned {
				b, err := os.ReadFile(goldenPath(c.workload, c.config))
				if err != nil {
					t.Fatalf("missing golden: %v", err)
				}
				want = b
			} else {
				rep, err := denovogpu.RunByName(cfg, c.workload)
				if err != nil {
					t.Fatal(err)
				}
				want = mustCanonical(t, rep)
			}
			armed := cfg
			armed.Invariants = true
			rep, err := denovogpu.RunByName(armed, c.workload)
			if err != nil {
				t.Fatal(err)
			}
			if got := mustCanonical(t, rep); !bytes.Equal(got, want) {
				t.Errorf("armed sanitizer changed the report for %s under %s:\ngot:\n%s\nwant:\n%s",
					c.workload, cfg.Name(), got, want)
			}
		})
	}
}
