package denovogpu_test

import (
	"errors"
	"sync/atomic"
	"testing"

	"denovogpu"
)

func mustWorkload(t *testing.T, name string) denovogpu.Workload {
	t.Helper()
	w, err := denovogpu.WorkloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestMatrixConfigMajorOrder(t *testing.T) {
	cells := denovogpu.Matrix(
		[]denovogpu.Config{denovogpu.GD(), denovogpu.DD()},
		[]denovogpu.Workload{mustWorkload(t, "ST"), mustWorkload(t, "LAVA")},
	)
	var got []string
	for _, c := range cells {
		got = append(got, c.Config.Name()+"/"+c.Workload.Name)
	}
	want := []string{"GD/ST", "GD/LAVA", "DD/ST", "DD/LAVA"}
	if len(got) != len(want) {
		t.Fatalf("cells %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cell order %v, want config-major %v", got, want)
		}
	}
}

// TestRunMatrixDeterminismAcrossWorkerCounts pins the runner's core
// contract: a matrix run at -j 1 and at -j 8 yields identical Reports
// in identical positions.
func TestRunMatrixDeterminismAcrossWorkerCounts(t *testing.T) {
	cells := denovogpu.Matrix(
		[]denovogpu.Config{denovogpu.GD(), denovogpu.DD(), denovogpu.DH()},
		[]denovogpu.Workload{mustWorkload(t, "ST"), mustWorkload(t, "LAVA")},
	)
	serial, err := denovogpu.RunMatrix(cells, denovogpu.MatrixOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := denovogpu.RunMatrix(cells, denovogpu.MatrixOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		a, b := serial[i].Report, parallel[i].Report
		if a.Config != b.Config || a.Workload != b.Workload {
			t.Fatalf("cell %d identity differs: %s/%s vs %s/%s", i, a.Config, a.Workload, b.Config, b.Workload)
		}
		if a.Cycles != b.Cycles || a.Events != b.Events {
			t.Errorf("cell %d (%s/%s): cycles/events %d/%d at -j1 vs %d/%d at -j8",
				i, a.Config, a.Workload, a.Cycles, a.Events, b.Cycles, b.Events)
		}
		if a.EnergyPJ != b.EnergyPJ {
			t.Errorf("cell %d energy differs across worker counts", i)
		}
		if a.Flits != b.Flits {
			t.Errorf("cell %d traffic differs across worker counts", i)
		}
	}
}

// TestRunMatrixCancellation: the first failing cell stops dispatch;
// cells that never started are marked ErrCellSkipped and their hosts
// never execute.
func TestRunMatrixCancellation(t *testing.T) {
	var ran atomic.Int32
	boom := errors.New("boom")
	bad := denovogpu.Workload{
		Name: "bad",
		Host: func(h denovogpu.Host) {
			ran.Add(1)
			h.Launch(func(*denovogpu.Ctx) {}, 1, 32)
		},
		Verify: func(denovogpu.Host) error { return boom },
	}
	good := denovogpu.Workload{
		Name: "good",
		Host: func(h denovogpu.Host) {
			ran.Add(1)
			h.Launch(func(*denovogpu.Ctx) {}, 1, 32)
		},
	}
	cells := make([]denovogpu.MatrixCell, 0, 8)
	cells = append(cells, denovogpu.MatrixCell{Config: denovogpu.GD(), Workload: bad})
	for i := 0; i < 7; i++ {
		cells = append(cells, denovogpu.MatrixCell{Config: denovogpu.GD(), Workload: good})
	}
	// One worker: cell 0 fails before any other cell is dispatched.
	results, err := denovogpu.RunMatrix(cells, denovogpu.MatrixOptions{Workers: 1})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the cell-0 failure", err)
	}
	if n := ran.Load(); n != 1 {
		t.Fatalf("%d cells executed, want 1", n)
	}
	if results[0].Err == nil {
		t.Fatal("failing cell has no error")
	}
	for i := 1; i < len(results); i++ {
		if !errors.Is(results[i].Err, denovogpu.ErrCellSkipped) {
			t.Fatalf("cell %d: err = %v, want ErrCellSkipped", i, results[i].Err)
		}
	}
}
