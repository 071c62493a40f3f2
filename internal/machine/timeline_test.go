// Timeline digest wall.
//
// The goldens pin end-of-run totals, and every energy constant is a
// whole number of picojoules, so a change that moves a charge to
// another cycle but keeps its amount passes them. This wall samples
// every Stats counter, every flit class and every energy component
// every timelineEvery cycles across each pinned cell, hashes the
// series with SHA-256, and compares the digest with the one pinned in
// testdata/timeline_digests.txt. The sampler rides the engine's
// advance hook, so it adds no events and the reports stay identical.
//
// Regenerate after an intentional model change, together with the
// goldens, with:
//
//	go test ./internal/machine -run TestTimelineDigests -update
package machine_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"denovogpu"
	"denovogpu/internal/machine"
	"denovogpu/internal/sim"
	"denovogpu/internal/stats"
)

// timelineEvery is the sampling interval in cycles: fine enough that a
// charge moved by a few cycles crosses a sample boundary somewhere in
// a cell, coarse enough that the 44 cells add about a second of CPU.
const timelineEvery = 64

var timelinePath = filepath.Join("testdata", "timeline_digests.txt")

// timelineHasher feeds one sample row per call into a running SHA-256:
// the cycle, every counter as name and value in name order, the flit
// classes and the energy components' bit patterns.
type timelineHasher struct {
	h   hash.Hash
	buf []byte
}

func (th *timelineHasher) sample(cycle uint64, st *stats.Stats) {
	b := binary.LittleEndian.AppendUint64(th.buf[:0], cycle)
	for _, name := range st.Names() {
		b = append(b, name...)
		b = append(b, 0)
		b = binary.LittleEndian.AppendUint64(b, st.Get(name))
	}
	for _, f := range st.Flits {
		b = binary.LittleEndian.AppendUint64(b, f)
	}
	for _, e := range st.EnergyPJ {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e))
	}
	th.h.Write(b)
	th.buf = b
}

// timelineDigest runs one pinned cell with the sampler on its advance
// hook and returns the hex digest of the series and the sample count.
func timelineDigest(t *testing.T, spec denovogpu.CellSpec) (string, int) {
	t.Helper()
	cell, err := spec.Cell()
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(cell.Config)
	st := m.Stats()
	th := &timelineHasher{h: sha256.New()}
	rows := 0
	var next uint64
	m.Engine().SetAdvanceHook(func(leaving sim.Time) {
		if now := uint64(leaving); now >= next {
			th.sample(now, st)
			rows++
			next = (now/timelineEvery + 1) * timelineEvery
		}
	})
	cell.Workload.Host(m)
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	th.sample(st.Cycles, st)
	return hex.EncodeToString(th.h.Sum(nil)), rows + 1
}

func readTimelineDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(timelinePath)
	if err != nil {
		t.Fatalf("missing digests (run with -update to create): %v", err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if cell, digest, ok := strings.Cut(sc.Text(), " "); ok {
			want[cell] = digest
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestTimelineDigests requires every pinned cell's sampled timeline to
// hash to its pinned digest.
func TestTimelineDigests(t *testing.T) {
	specs := denovogpu.PinnedCells()
	got := make([]string, len(specs))
	var want map[string]string
	if !*update {
		want = readTimelineDigests(t)
	}
	t.Run("cells", func(t *testing.T) {
		for i, s := range specs {
			i, s := i, s
			name := s.Workload + "/" + s.Config.Name
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				digest, rows := timelineDigest(t, s)
				got[i] = name + " " + digest
				if *update {
					return
				}
				if w, ok := want[name]; !ok {
					t.Errorf("no pinned digest (run with -update to create)")
				} else if digest != w {
					t.Errorf("timeline digest %s over %d samples every %d cycles, pinned %s", digest, rows, timelineEvery, w)
				}
			})
		}
	})
	if *update {
		body := strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(timelinePath, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(want) != len(specs) {
		t.Errorf("%s pins %d cells, want the %d pinned cells", timelinePath, len(want), len(specs))
	}
}
