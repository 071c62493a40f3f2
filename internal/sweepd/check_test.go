package sweepd

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"denovogpu"
	"denovogpu/internal/resultcache"
)

// TestCheckCellsDistributed is the sharded-checker differential wall
// in miniature: a check cell split into prefix units, executed by two
// concurrent pull workers through the coordinator, must merge to the
// byte-identical verdict of a serial in-process run — and a warm
// re-submit must complete entirely from the result cache.
func TestCheckCellsDistributed(t *testing.T) {
	cache, err := resultcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, srv, client := newTestServer(t, Options{Cache: cache})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := &Worker{Server: srv.URL, Name: fmt.Sprintf("w%d", i), IdlePoll: 5 * time.Millisecond}
			_ = w.Run(ctx)
		}(i)
	}
	defer wg.Wait()
	defer cancel()

	// Serial reference verdict.
	spec := denovogpu.CellSpec{Config: denovogpu.ConfigSpec{Name: "DD"}, Program: "SB+sync"}
	serialBytes, _, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	serial, err := denovogpu.UnmarshalCheckReport(serialBytes)
	if err != nil {
		t.Fatal(err)
	}
	wantVerdict, err := denovogpu.MergeCheckVerdict([]denovogpu.CheckReport{serial})
	if err != nil {
		t.Fatal(err)
	}
	want, err := denovogpu.MarshalCheckVerdict(wantVerdict)
	if err != nil {
		t.Fatal(err)
	}

	// Distributed: split client-side, submit the units as one job.
	units, base, err := denovogpu.SplitCheckCell(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) < 4 {
		t.Fatalf("split produced only %d units", len(units))
	}
	cells := units
	sr, err := client.Submit(ctx, denovogpu.MatrixSpec{Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	status, err := client.Wait(ctx, sr.Status.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if status.State != "done" || status.Done != len(cells) || status.CacheHits != 0 {
		t.Fatalf("cold check job finished %+v", status)
	}

	reports := []denovogpu.CheckReport{base}
	for i := range cells {
		data, err := client.CellReport(ctx, status.ID, i)
		if err != nil {
			t.Fatalf("unit %d report: %v", i, err)
		}
		r, err := denovogpu.UnmarshalCheckReport(data)
		if err != nil {
			t.Fatalf("unit %d: %v", i, err)
		}
		if r.Shard == nil || r.Shard.Index != i {
			t.Fatalf("unit %d report carries shard %+v", i, r.Shard)
		}
		reports = append(reports, r)
	}
	gotVerdict, err := denovogpu.MergeCheckVerdict(reports)
	if err != nil {
		t.Fatal(err)
	}
	got, err := denovogpu.MarshalCheckVerdict(gotVerdict)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("distributed verdict diverges from serial:\n--- serial ---\n%s\n--- distributed ---\n%s", want, got)
	}

	// Warm re-submit: identical unit specs, fresh job, zero exploration.
	sr2, err := client.Submit(ctx, denovogpu.MatrixSpec{Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	if sr2.Deduped {
		t.Fatal("finished job deduped a re-submit")
	}
	if sr2.Status.State != "done" || sr2.Status.CacheHits != len(cells) {
		t.Fatalf("warm check run not 100%% cache hits: %+v", sr2.Status)
	}
}

// TestSubmitCheckValidation: malformed check cells are rejected whole
// at submit, before any worker sees them.
func TestSubmitCheckValidation(t *testing.T) {
	_, _, client := newTestServer(t, Options{})
	ctx := context.Background()

	dd := denovogpu.ConfigSpec{Name: "DD"}
	for name, cell := range map[string]denovogpu.CellSpec{
		"unknown program":       {Config: dd, Program: "NOPE"},
		"unknown config":        {Config: denovogpu.ConfigSpec{Name: "NOPE"}, Program: "MP"},
		"simulation fields too": {Config: dd, Workload: "LAVA", Program: "MP"},
		"seeded check cell":     {Config: dd, Program: "MP", Seed: 1},
		"sharded simulation":    {Config: dd, Workload: "LAVA", Shard: &denovogpu.CheckShard{}},
	} {
		if _, err := client.Submit(ctx, denovogpu.MatrixSpec{Cells: []denovogpu.CellSpec{cell}}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestCheckCellEvents: a check cell's progress events carry its
// display name and the explored-states count in the Events field.
func TestCheckCellEvents(t *testing.T) {
	coord, srv, client := newTestServer(t, Options{})
	_ = coord
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := &Worker{Server: srv.URL, Name: "w0", IdlePoll: 5 * time.Millisecond}
		_ = w.Run(ctx)
	}()
	defer wg.Wait()
	defer cancel()

	cell := denovogpu.CellSpec{Config: denovogpu.ConfigSpec{Name: "DD"}, Program: "MP"}
	sr, err := client.Submit(ctx, denovogpu.MatrixSpec{Cells: []denovogpu.CellSpec{cell}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Wait(ctx, sr.Status.ID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	evs, done, err := coord.Events(sr.Status.ID, 0)
	if err != nil || !done {
		t.Fatalf("events: %v done=%v", err, done)
	}
	sawDone := false
	for _, ev := range evs {
		if ev.Workload != "check:MP" || ev.Config != "DD" {
			t.Errorf("event names %q under %q", ev.Workload, ev.Config)
		}
		if ev.State == StateDone {
			sawDone = true
			if ev.Events == 0 {
				t.Error("done event has zero explored states")
			}
		}
	}
	if !sawDone {
		t.Error("no done event")
	}
}
