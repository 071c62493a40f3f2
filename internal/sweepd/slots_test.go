package sweepd

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"denovogpu"
	"denovogpu/internal/resultcache"
)

// startWorker runs one worker with the given number of slots against
// server until the test ends; Run must then return nil.
func startWorker(t *testing.T, server string, slots int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	w := &Worker{Server: server, Name: "w", IdlePoll: 5 * time.Millisecond}
	go func() { done <- w.run(ctx, slots) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("worker: Run = %v after cancellation, want nil", err)
		}
	})
}

// injectRunCell replaces the worker's cell runner with fn, which gets
// the real runner to fall through to, until the test ends. Call it
// before startWorker, so the worker has stopped when it is restored.
func injectRunCell(t *testing.T, fn func(s denovogpu.CellSpec, real func(denovogpu.CellSpec) ([]byte, uint64, error)) ([]byte, uint64, error)) {
	orig := runCell
	runCell = func(s denovogpu.CellSpec) ([]byte, uint64, error) { return fn(s, orig) }
	t.Cleanup(func() { runCell = orig })
}

// mixedJob holds every kind of cell a worker runs: single-device
// simulation cells, a 2-device cell and whole check cells.
func mixedJob(t *testing.T, keepGoing bool) denovogpu.MatrixSpec {
	t.Helper()
	spec := smallSpec("LAVA", "ST", "NN")
	spec.Cells = append(spec.Cells, denovogpu.CellSpec{Config: denovogpu.ConfigSpec{Name: "DD", Devices: 2}, Workload: "UTSx2"})
	for _, prog := range []string{"MP", "SB+sync", "LB"} {
		spec.Cells = append(spec.Cells, denovogpu.CellSpec{Config: denovogpu.ConfigSpec{Name: "DD"}, Program: prog})
	}
	spec.KeepGoing = keepGoing
	return spec
}

// slotRun is what one job left behind on its coordinator.
type slotRun struct {
	status  JobStatus
	events  []Event
	reports [][]byte // nil for a cell that is not done
}

// runJob submits spec to a fresh coordinator served to one worker of
// the given number of slots and follows the job to its end.
func runJob(t *testing.T, spec denovogpu.MatrixSpec, slots int) slotRun {
	t.Helper()
	coord, srv, client := newTestServer(t, Options{})
	startWorker(t, srv.URL, slots)
	ctx := context.Background()
	sr, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	status, err := client.Wait(ctx, sr.Status.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	events, _, err := coord.Events(status.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	run := slotRun{status: status, events: events, reports: make([][]byte, len(spec.Cells))}
	for i := range spec.Cells {
		if report, err := coord.CellReport(status.ID, i); err == nil {
			run.reports[i] = report
		}
	}
	return run
}

// runningEvents counts each cell's running events, and returns the
// most cells the stream ever shows running at once.
func runningEvents(events []Event) (perCell map[int]int, maxInFlight int) {
	perCell = map[int]int{}
	inFlight := 0
	for _, ev := range events {
		switch {
		case ev.State == StateRunning:
			perCell[ev.Cell]++
			inFlight++
			maxInFlight = max(maxInFlight, inFlight)
		case ev.State.Terminal() && !ev.CacheHit && perCell[ev.Cell] > 0:
			inFlight--
		}
	}
	return perCell, maxInFlight
}

// TestWorkerSlotsMatchSerial is the slots' determinism wall: a mixed
// keep-going job with one failing cell, run by one worker at one slot
// and at four, must end in the same report bytes for every cell, the
// same lowest-index job error, and exactly one running event per cell.
func TestWorkerSlotsMatchSerial(t *testing.T) {
	injectRunCell(t, func(s denovogpu.CellSpec, real func(denovogpu.CellSpec) ([]byte, uint64, error)) ([]byte, uint64, error) {
		if s.Workload == "ST" {
			return nil, 0, errors.New("injected fault")
		}
		return real(s)
	})
	spec := mixedJob(t, true)
	serial := runJob(t, spec, 1)
	slots := runJob(t, spec, 4)

	for name, r := range map[string]slotRun{"1 slot": serial, "4 slots": slots} {
		st := r.status
		if st.State != "failed" || st.Done != len(spec.Cells)-1 || st.Failed != 1 || st.Skipped != 0 {
			t.Errorf("%s: job ended %+v", name, st)
		}
		perCell, _ := runningEvents(r.events)
		for i := range spec.Cells {
			if perCell[i] != 1 {
				t.Errorf("%s: cell %d has %d running events, want 1", name, i, perCell[i])
			}
		}
	}
	if serial.status.ErrorCell != 1 || slots.status.ErrorCell != serial.status.ErrorCell || slots.status.Error != serial.status.Error {
		t.Errorf("job error: 1 slot cell %d %q, 4 slots cell %d %q; want cell 1 on both",
			serial.status.ErrorCell, serial.status.Error, slots.status.ErrorCell, slots.status.Error)
	}
	for i := range spec.Cells {
		if (serial.reports[i] == nil) != (i == 1) || !bytes.Equal(serial.reports[i], slots.reports[i]) {
			t.Errorf("cell %d: 4 slots reported %d bytes, 1 slot %d, or they differ", i, len(slots.reports[i]), len(serial.reports[i]))
		}
	}
	if _, most := runningEvents(slots.events); most < 2 {
		t.Errorf("4 slots never held two cells at once: %+v", slots.events)
	}
}

// TestWorkerSlotsFailFast: under fail-fast, a failure stops the job
// while other slots hold cells. Those cells finish, the queued ones are
// skipped, and the job error is the lowest-index failure even though a
// higher-index cell failed first: ST (cell 1) fails only after NN's
// (cell 2) failure has landed. Every other cell is held until ST has
// failed, so no slot frees up to lease a queued cell before NN's
// failure has skipped them.
func TestWorkerSlotsFailFast(t *testing.T) {
	nnFailed, stFailed := make(chan struct{}), make(chan struct{})
	injectRunCell(t, func(s denovogpu.CellSpec, real func(denovogpu.CellSpec) ([]byte, uint64, error)) ([]byte, uint64, error) {
		switch s.Workload {
		case "NN":
			return nil, 0, errors.New("injected fault in NN")
		case "ST":
			select {
			case <-nnFailed:
				return nil, 0, errors.New("injected fault in ST")
			case <-time.After(time.Minute):
				return nil, 0, errors.New("NN was never leased beside ST")
			}
		}
		select {
		case <-stFailed:
			return real(s)
		case <-time.After(time.Minute):
			return nil, 0, errors.New("ST never failed")
		}
	})
	spec := mixedJob(t, false)
	coord, srv, client := newTestServer(t, Options{})
	startWorker(t, srv.URL, 4)
	ctx := context.Background()
	sr, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	closeNN, closeST := sync.OnceFunc(func() { close(nnFailed) }), sync.OnceFunc(func() { close(stFailed) })
	go func() {
		_ = client.StreamEvents(ctx, sr.Status.ID, func(ev Event) error {
			switch {
			case ev.Cell == 2 && ev.State == StateFailed:
				closeNN()
			case ev.Cell == 1 && ev.State == StateFailed:
				closeST()
			}
			return nil
		})
	}()
	status, err := client.Wait(ctx, sr.Status.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if status.State != "failed" || status.Failed != 2 || status.Skipped == 0 {
		t.Errorf("job ended %+v, want ST and NN failed and the queued cells skipped", status)
	}
	if status.ErrorCell != 1 || !strings.Contains(status.Error, "injected fault in ST") {
		t.Errorf("job error = cell %d %q, want cell 1's fault", status.ErrorCell, status.Error)
	}
	events, _, err := coord.Events(status.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	perCell, _ := runningEvents(events)
	final := map[int]Event{}
	for _, ev := range events {
		if ev.State.Terminal() {
			final[ev.Cell] = ev
		}
	}
	if final[2].Seq > final[1].Seq {
		t.Errorf("ST failed (seq %d) before NN (seq %d)", final[1].Seq, final[2].Seq)
	}
	for i := range spec.Cells {
		ran, state := perCell[i] > 0, final[i].State
		if ran && state == StateSkipped || !ran && state != StateSkipped {
			t.Errorf("cell %d ran %d times and ended %s: leased cells must finish and queued ones be skipped", i, perCell[i], state)
		}
	}
}

// TestCoordinatorRestart stops the coordinator mid-job, with cells
// running on three of a worker's four slots, and starts a new one on
// the same cache directory behind the same address. The resubmit
// finishes byte-identical to a serial RunMatrix, the cells completed
// before the stop are cache hits, and the new coordinator answers the
// late completes on the old leases with 410.
func TestCoordinatorRestart(t *testing.T) {
	spec := smallSpec("LAVA", "ST", "NN", "BP", "SRAD")
	gated := map[string]bool{"NN": true, "BP": true, "SRAD": true}
	// Each gated cell starts twice: on an old lease, then on a new one.
	started := make(chan struct{}, 2*len(gated))
	gate := make(chan struct{})
	injectRunCell(t, func(s denovogpu.CellSpec, real func(denovogpu.CellSpec) ([]byte, uint64, error)) ([]byte, uint64, error) {
		if gated[s.Workload] {
			started <- struct{}{}
			<-gate
		}
		return real(s)
	})

	dir := t.TempDir()
	open := func() *Coordinator {
		cache, err := resultcache.Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		return New(Options{Cache: cache, Version: "test-v1"})
	}
	var front atomic.Pointer[http.Handler]
	setFront := func(h http.Handler) { front.Store(&h) }
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*front.Load()).ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	client := &Client{Base: srv.URL}
	ctx := context.Background()

	old := open()
	setFront(old.Handler())
	startWorker(t, srv.URL, 4)
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release)
	sr, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range len(gated) {
		select {
		case <-started:
		case <-time.After(time.Minute):
			t.Fatalf("only %d of the slots started a cell", i)
		}
	}
	for seq, done := 0, map[int]bool{}; !done[0] || !done[1]; {
		evs, _, err := old.WaitEvents(sr.Status.ID, seq, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range evs {
			done[ev.Cell] = done[ev.Cell] || ev.State == StateDone
		}
		seq += len(evs)
	}

	// Stop: every request fails until the worker has seen one failure.
	down := make(chan struct{})
	var downOnce sync.Once
	setFront(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusServiceUnavailable, errors.New("coordinator stopped"))
		downOnce.Do(func() { close(down) })
	}))
	<-down

	// Restart on the same cache directory, counting the 410s.
	stale := make(chan struct{}, 2*len(gated))
	restarted := open().Handler()
	setFront(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		restarted.ServeHTTP(rec, r)
		if r.URL.Path == "/api/v1/complete" && rec.code == http.StatusGone {
			stale <- struct{}{}
		}
	}))
	sr2, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if sr2.Status.CacheHits != 2 {
		t.Errorf("resubmit has %d cache hits, want the 2 cells completed before the stop", sr2.Status.CacheHits)
	}
	release()
	status, err := client.Wait(ctx, sr2.Status.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if status.State != "done" || status.Done != len(spec.Cells) || status.CacheHits != 2 {
		t.Fatalf("resubmitted job ended %+v", status)
	}
	for range gated {
		select {
		case <-stale:
		case <-time.After(time.Minute):
			t.Fatal("a late complete on an old lease was not answered 410")
		}
	}

	cells := make([]denovogpu.MatrixCell, len(spec.Cells))
	for i, s := range spec.Cells {
		if cells[i], err = s.Cell(); err != nil {
			t.Fatal(err)
		}
	}
	want, err := denovogpu.RunMatrix(cells, denovogpu.MatrixOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range want {
		wantBytes, err := denovogpu.MarshalReport(res.Report)
		if err != nil {
			t.Fatal(err)
		}
		got, err := client.CellReport(ctx, status.ID, i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantBytes) {
			t.Errorf("cell %d (%s) differs from the serial RunMatrix report", i, spec.Cells[i].Workload)
		}
	}
}

// statusRecorder remembers the status code a handler wrote.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}
