// Observability determinism tests: the trace recorder and epoch
// sampler ride the same single-threaded engine as the simulation, so
// the exported artifacts — the Chrome trace JSON, the text trace and
// the metrics CSV — must be byte-identical across reruns and
// independent of GOMAXPROCS. Any divergence means a hook observed
// nondeterministic state (map iteration, goroutine interleaving) and
// would poison CI artifact comparisons.
package machine_test

import (
	"bytes"
	"runtime"
	"testing"

	"denovogpu"
)

// obsPairs covers both coherence protocols and both consistency
// models with short workloads so tier-1 stays fast.
var obsPairs = []goldenPair{
	{"SPM_G", "DD"},
	{"SPM_L", "GH"},
}

// obsSnapshot runs one observed simulation and concatenates its three
// artifacts; byte equality is the definition of "identical stream".
func obsSnapshot(t *testing.T, p goldenPair) []byte {
	t.Helper()
	cfg, err := denovogpu.ConfigByName(p.config)
	if err != nil {
		t.Fatal(err)
	}
	w, err := denovogpu.WorkloadByName(p.workload)
	if err != nil {
		t.Fatal(err)
	}
	var rec *denovogpu.Recorder
	sampler := denovogpu.NewSampler(500)
	if _, err := denovogpu.RunObserved(cfg, w, func(clock func() uint64) *denovogpu.Recorder {
		rec = denovogpu.NewRecorder(clock, 0)
		return rec
	}, sampler); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if err := sampler.Series().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestTraceDeterminismSameProcess(t *testing.T) {
	for _, p := range obsPairs {
		p := p
		t.Run(p.workload+"/"+p.config, func(t *testing.T) {
			t.Parallel()
			first := obsSnapshot(t, p)
			second := obsSnapshot(t, p)
			if !bytes.Equal(first, second) {
				t.Errorf("two in-process observed runs diverged (%d vs %d bytes)", len(first), len(second))
			}
		})
	}
}

func TestTraceDeterminismAcrossGOMAXPROCS(t *testing.T) {
	// GOMAXPROCS is process-global, so this test cannot run in
	// parallel with anything else.
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)

	p := goldenPair{"SPM_L", "DD"}
	var want []byte
	for _, procs := range []int{1, 2, orig} {
		runtime.GOMAXPROCS(procs)
		got := obsSnapshot(t, p)
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("GOMAXPROCS=%d trace diverged from GOMAXPROCS=1 (%d vs %d bytes)", procs, len(got), len(want))
		}
	}
}
