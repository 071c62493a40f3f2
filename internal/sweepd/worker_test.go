package sweepd

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"denovogpu"
)

// step answers one worker request in a scripted coordinator.
type step struct {
	path    string
	respond func(w http.ResponseWriter)
}

// errorReply answers with an HTTP error status and a JSON error body.
func errorReply(code int) func(http.ResponseWriter) {
	return func(w http.ResponseWriter) { writeError(w, code, errors.New("scripted failure")) }
}

// hangUp closes the connection without an HTTP response, so the
// worker's request fails in transport.
func hangUp(w http.ResponseWriter) {
	conn, _, err := w.(http.Hijacker).Hijack()
	if err != nil {
		panic(err)
	}
	conn.Close()
}

func leaseOK(w http.ResponseWriter) {
	writeJSON(w, http.StatusOK, LeaseInfo{Lease: "l1", Job: "j1",
		Spec: denovogpu.CellSpec{Config: denovogpu.ConfigSpec{Name: "GD"}, Workload: "LAVA"}})
}

// scriptedCoordinator answers the worker's requests in script order,
// failing the test on a request the script does not expect; past the
// end of the script it answers every lease 204 and calls done.
func scriptedCoordinator(t *testing.T, script []step, done func()) *httptest.Server {
	t.Helper()
	var mu sync.Mutex
	next := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		i := next
		next++
		mu.Unlock()
		if i >= len(script) {
			done()
			w.WriteHeader(http.StatusNoContent)
			return
		}
		if r.URL.Path != script[i].path {
			t.Errorf("request %d: %s, want %s", i, r.URL.Path, script[i].path)
		}
		script[i].respond(w)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// stubRunCell makes every leased cell finish at once with a fixed
// report.
func stubRunCell(t *testing.T) {
	orig := runCell
	runCell = func(denovogpu.CellSpec) ([]byte, uint64, error) { return []byte(`{}`), 1, nil }
	t.Cleanup(func() { runCell = orig })
}

// TestWorkerGivesUpAfterConsecutiveErrors: a coordinator that answers
// every lease with an error stops the worker after exactly 30 tries.
func TestWorkerGivesUpAfterConsecutiveErrors(t *testing.T) {
	var script []step
	for i := 0; i < 30; i++ {
		script = append(script, step{"/api/v1/lease", errorReply(http.StatusInternalServerError)})
	}
	srv := scriptedCoordinator(t, script, func() { t.Error("worker asked past its 30th error") })
	w := &Worker{Server: srv.URL, Name: "w", IdlePoll: time.Millisecond}
	err := w.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "coordinator unreachable") || !strings.Contains(err.Error(), "scripted failure") {
		t.Fatalf("Run = %v, want the give-up error carrying the last failure", err)
	}
}

// TestWorkerRetriesTransportAndHTTPErrors runs every error return of
// lease and complete once, in a fixed order: each is retried, and a
// success in between resets the give-up count, so 29 errors before a
// good exchange and 29 after it (with a stale-lease drop and a single
// error between) do not stop the worker.
func TestWorkerRetriesTransportAndHTTPErrors(t *testing.T) {
	stubRunCell(t)
	failures := []func(http.ResponseWriter){
		errorReply(http.StatusInternalServerError), // lease: HTTP error
		hangUp, // lease: transport error
		func(w http.ResponseWriter) { // lease: unparsable body
			w.WriteHeader(http.StatusOK)
			w.Write([]byte("{"))
		},
	}
	var script []step
	for i := 0; i < 28; i++ {
		script = append(script, step{"/api/v1/lease", failures[i%len(failures)]})
	}
	script = append(script,
		step{"/api/v1/lease", leaseOK},
		step{"/api/v1/complete", errorReply(http.StatusInternalServerError)}, // complete: HTTP error (29th)
		step{"/api/v1/lease", leaseOK},
		step{"/api/v1/complete", func(w http.ResponseWriter) { writeJSON(w, http.StatusOK, map[string]bool{"ok": true}) }},
		step{"/api/v1/lease", leaseOK},
		step{"/api/v1/complete", hangUp}, // complete: transport error
		step{"/api/v1/lease", leaseOK},
		step{"/api/v1/complete", errorReply(http.StatusGone)}, // stale lease: dropped, not an error
	)
	for i := 0; i < 29; i++ {
		script = append(script, step{"/api/v1/lease", failures[i%len(failures)]})
	}
	// An idle answer resets the count before the cancelling request
	// fails with the context's error.
	script = append(script, step{"/api/v1/lease", func(w http.ResponseWriter) { w.WriteHeader(http.StatusNoContent) }})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv := scriptedCoordinator(t, script, cancel)
	w := &Worker{Server: srv.URL, Name: "w", IdlePoll: time.Millisecond}
	if err := w.Run(ctx); err != nil {
		t.Fatalf("Run = %v, want nil after cancellation", err)
	}
}

// TestWorkerStopsWhileBackingOff: cancellation during the sleep after
// an error ends Run without an error.
func TestWorkerStopsWhileBackingOff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv := scriptedCoordinator(t, []step{{"/api/v1/lease", func(w http.ResponseWriter) {
		cancel()
		errorReply(http.StatusInternalServerError)(w)
	}}}, func() { t.Error("worker asked again after cancellation") })
	w := &Worker{Server: srv.URL, Name: "w", IdlePoll: time.Hour}
	if err := w.Run(ctx); err != nil {
		t.Fatalf("Run = %v, want nil", err)
	}
}

// TestWorkerReportsCompleteErrors: RunOne returns complete's HTTP error
// with the coordinator's message.
func TestWorkerReportsCompleteErrors(t *testing.T) {
	stubRunCell(t)
	srv := scriptedCoordinator(t, []step{
		{"/api/v1/lease", leaseOK},
		{"/api/v1/complete", errorReply(http.StatusBadRequest)},
	}, func() {})
	w := &Worker{Server: srv.URL, Name: "w"}
	worked, err := w.RunOne(context.Background())
	if !worked || err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("RunOne = %v, %v; want worked and a 400 error", worked, err)
	}
}
