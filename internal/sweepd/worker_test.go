package sweepd

import (
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

// The scripted tests run one slot (w.run(ctx, 1)): each asserts an
// exact request order, which concurrent slots would interleave.

// TestWorkerGivesUpAfterConsecutiveErrors: a coordinator that answers
// every lease with an error stops the worker after exactly 30 tries.
func TestWorkerGivesUpAfterConsecutiveErrors(t *testing.T) {
	var script []step
	for i := 0; i < 30; i++ {
		script = append(script, step{"/api/v1/lease", errorReply(http.StatusInternalServerError)})
	}
	srv := scriptedCoordinator(t, script, func() { t.Error("worker asked past its 30th error") })
	w := &Worker{Server: srv.URL, Name: "w", IdlePoll: time.Millisecond}
	err := w.run(context.Background(), 1)
	if err == nil || !strings.Contains(err.Error(), "coordinator unreachable") || !strings.Contains(err.Error(), "scripted failure") {
		t.Fatalf("Run = %v, want the give-up error carrying the last failure", err)
	}
}

// TestWorkerRetriesTransportAndHTTPErrors runs every error return of
// lease and complete once, in a fixed order: each is retried, and a
// success in between resets the give-up count, so 29 errors before a
// good exchange and 29 after it (with a stale-lease drop and a single
// error between) do not stop the worker. Nor does a 30th that fails
// because Run's own context was cancelled: that is not a coordinator
// error, so Run returns nil.
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
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	script = append(script, step{"/api/v1/lease", func(w http.ResponseWriter) {
		cancel()
		hangUp(w)
	}})
	srv := scriptedCoordinator(t, script, func() { t.Error("worker asked again after cancellation") })
	w := &Worker{Server: srv.URL, Name: "w", IdlePoll: time.Millisecond}
	if err := w.run(ctx, 1); err != nil {
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
	if err := w.run(ctx, 1); err != nil {
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

// TestWorkerSlotsGiveUpTogether: each slot counts its own consecutive
// errors, so a coordinator that fails every request stops all four
// slots once each has failed 30 times, give or take the retries of
// slots that got there first.
func TestWorkerSlotsGiveUpTogether(t *testing.T) {
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		errorReply(http.StatusInternalServerError)(w)
	}))
	t.Cleanup(srv.Close)
	w := &Worker{Server: srv.URL, Name: "w", IdlePoll: time.Millisecond}
	err := w.run(context.Background(), 4)
	if err == nil || !strings.Contains(err.Error(), "coordinator unreachable") {
		t.Fatalf("Run = %v, want the give-up error", err)
	}
	lo, hi := 4*maxConsecutiveErrors, 4*(maxConsecutiveErrors+8)
	if n := requests.Load(); n < int64(lo) || n > int64(hi) {
		t.Errorf("%d requests before giving up, want %d to %d", n, lo, hi)
	}
}

// TestWorkerCancelWaitsForSlots: cancelling Run while four slots each
// run a cell returns nil, and only after every one of those cells has
// finished.
func TestWorkerCancelWaitsForSlots(t *testing.T) {
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	var finished atomic.Int64
	injectRunCell(t, func(denovogpu.CellSpec, func(denovogpu.CellSpec) ([]byte, uint64, error)) ([]byte, uint64, error) {
		started <- struct{}{}
		<-release
		finished.Add(1)
		return []byte(`{}`), 1, nil
	})

	_, srv, client := newTestServer(t, Options{})
	job, err := client.Submit(context.Background(), smallSpec("LAVA", "ST", "NN", "BP", "SRAD"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	w := &Worker{Server: srv.URL, Name: "w", IdlePoll: time.Millisecond}
	go func() { done <- w.run(ctx, 4) }()
	for i := range 4 {
		select {
		case <-started:
		case <-time.After(time.Minute):
			close(release)
			t.Fatalf("only %d of the slots started a cell", i)
		}
	}
	cancel()
	select {
	case err := <-done:
		t.Fatalf("Run = %v while its slots still ran cells", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Run = %v, want nil", err)
	}
	if n := finished.Load(); n != 4 {
		t.Errorf("Run returned with %d of its 4 cells finished", n)
	}
	st, err := client.Job(context.Background(), job.Status.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 4 || st.Running != 0 {
		t.Errorf("after Run returned the job reads Running:%d Done:%d, want the 4 finished cells done", st.Running, st.Done)
	}
}

// TestWorkerBacksOffAfterErrors: each failed exchange is followed by a
// sleep of IdlePoll doubling up to 32 IdlePolls, and at the default
// poll the 30 failures per slot that stop a worker span more than the
// coordinator's default lease TTL, whatever the slot count.
func TestWorkerBacksOffAfterErrors(t *testing.T) {
	var (
		mu       sync.Mutex
		arrivals []time.Time
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		arrivals = append(arrivals, time.Now())
		mu.Unlock()
		errorReply(http.StatusInternalServerError)(w)
	}))
	t.Cleanup(srv.Close)
	w := &Worker{Server: srv.URL, Name: "w", IdlePoll: time.Millisecond}
	if err := w.run(context.Background(), 1); err == nil {
		t.Fatal("Run = nil, want the give-up error")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(arrivals) != maxConsecutiveErrors {
		t.Fatalf("%d requests, want %d", len(arrivals), maxConsecutiveErrors)
	}
	var want time.Duration
	for i := 1; i < len(arrivals); i++ {
		d := backoff(time.Millisecond, i)
		if exp := time.Millisecond << min(i-1, 5); d != exp {
			t.Errorf("backoff after failure %d = %v, want %v", i, d, exp)
		}
		if gap := arrivals[i].Sub(arrivals[i-1]); gap < d {
			t.Errorf("request %d came %v after the failure before it, want at least %v", i+1, gap, d)
		}
		want += d
	}
	if got := arrivals[len(arrivals)-1].Sub(arrivals[0]); got < want {
		t.Errorf("30 failures spanned %v, want at least %v", got, want)
	}

	// Replay the schedule of n slots that fail every exchange at once,
	// at the default poll: each slot retries when its sleep ends, and
	// the worker gives up when the last slot reaches its 30th failure.
	ttl := New(Options{}).leaseTTL
	want = max(ttl, 80*time.Second)
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64} {
		wake := make([]time.Duration, n)
		fails := make([]int, n)
		var now time.Duration
		for spent := 0; spent < n; {
			next := 0
			for s := range wake {
				if wake[s] < wake[next] {
					next = s
				}
			}
			now = wake[next]
			fails[next]++
			if fails[next] == maxConsecutiveErrors {
				spent++
			}
			wake[next] = now + backoff(200*time.Millisecond, fails[next])
		}
		if now <= want {
			t.Errorf("%d slots give up after %v at the default poll, want more than %v", n, now, want)
		}
	}
}

// TestWorkerManySlotsBackOff: a worker with more slots than
// maxConsecutiveErrors, facing a coordinator address that refuses
// every connection, keeps retrying at least as long as one slot's
// backoff schedule before it gives up.
func TestWorkerManySlotsBackOff(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	srv.Close()
	var want time.Duration
	for i := 1; i < maxConsecutiveErrors; i++ {
		want += backoff(time.Millisecond, i)
	}
	w := &Worker{Server: srv.URL, Name: "w", IdlePoll: time.Millisecond}
	t0 := time.Now()
	err := w.run(context.Background(), 32)
	if got := time.Since(t0); got < want {
		t.Errorf("32 slots gave up after %v, want at least %v", got, want)
	}
	if err == nil || !strings.Contains(err.Error(), "coordinator unreachable") {
		t.Fatalf("Run = %v, want the give-up error", err)
	}
}
