package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"denovogpu"
)

// runCell executes one cell of either kind; a seam so worker tests can
// substitute failures without building a broken workload.
var runCell = denovogpu.CellSpec.Run

// Worker is a pull-based executor: it leases cells from a coordinator
// over HTTP, runs them through the api package, and posts back
// canonical report bytes. It keeps one cell in flight per
// runtime.GOMAXPROCS(0), so one worker process per host uses every
// core; set GOMAXPROCS to run fewer at once. Workers are stateless —
// all bookkeeping (cache, leases, job store) lives in the coordinator —
// so a worker can be killed at any moment and the lease TTL returns
// its cells to the queue.
type Worker struct {
	// Server is the coordinator's base URL, e.g. "http://coordinator:8080".
	Server string
	// Name identifies the worker in progress events; every slot of the
	// worker leases under it.
	Name string
	// Client is the HTTP client; nil selects a default with sane
	// timeouts for everything but the (long-polling-free) lease calls.
	Client *http.Client
	// IdlePoll is a slot's sleep between lease attempts when the queue
	// is empty, and its first sleep after a failed exchange (later ones
	// double; see backoff); 0 selects 200ms.
	IdlePoll time.Duration
}

func (w *Worker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return http.DefaultClient
}

func (w *Worker) idlePoll() time.Duration {
	if w.IdlePoll > 0 {
		return w.IdlePoll
	}
	return 200 * time.Millisecond
}

// maxConsecutiveErrors is how many failed exchanges in a row, since the
// last success on any slot, each of a worker's slots must count before
// Run gives up on the coordinator.
const maxConsecutiveErrors = 30

// maxBackoffPolls caps a slot's sleep after a failed exchange at this
// many IdlePolls.
const maxBackoffPolls = 32

// backoff is a slot's sleep after its fails-th consecutive failed
// exchange: IdlePoll, doubling with each failure up to maxBackoffPolls
// IdlePolls. At the default 200ms poll a slot's 30 failures span about
// 160 s, past the coordinator's default 60 s lease TTL, so a
// coordinator restart of that length kills no worker, however many
// slots it runs.
func backoff(poll time.Duration, fails int) time.Duration {
	limit := poll * maxBackoffPolls
	d := poll
	for i := 1; i < fails && d < limit; i++ {
		d *= 2
	}
	return min(d, limit)
}

// completeTimeout bounds the complete a slot posts after Run was
// cancelled.
const completeTimeout = 10 * time.Second

// Run pulls and executes cells on runtime.GOMAXPROCS(0) slots until ctx
// is cancelled (its only non-error exit) or every slot has failed
// maxConsecutiveErrors exchanges with the coordinator in a row, each
// followed by a growing sleep (see backoff). A cancelled Run returns
// once every slot has finished its in-flight cell and posted the
// result.
func (w *Worker) Run(ctx context.Context) error {
	return w.run(ctx, runtime.GOMAXPROCS(0))
}

// run is Run on a given number of slots. Each slot loops RunOne, the
// lease → run → complete step with its own heartbeat, and counts its
// own consecutive failed exchanges, which set its backoff. A success
// on any slot resets every slot's count; once every slot has counted
// maxConsecutiveErrors, the failure that completes the set stops them
// all. run returns after all of its slots have.
func (w *Worker) run(ctx context.Context, slots int) error {
	ctx, stop := context.WithCancel(ctx)
	defer stop()
	var (
		mu     sync.Mutex
		fails  = make([]int, slots)
		spent  int // slots whose count has reached maxConsecutiveErrors
		giveUp error
	)
	var wg sync.WaitGroup
	for slot := range slots {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				worked, err := w.RunOne(ctx)
				if err != nil && ctx.Err() != nil {
					// The request failed because Run was stopped, not
					// because the coordinator is unreachable.
					return
				}
				pause := w.idlePoll()
				mu.Lock()
				if err == nil {
					clear(fails)
					spent = 0
				} else {
					fails[slot]++
					if fails[slot] == maxConsecutiveErrors {
						spent++
					}
					if spent == slots && giveUp == nil {
						giveUp = fmt.Errorf("sweepd worker %s: coordinator unreachable: %w", w.Name, err)
						stop()
					}
					pause = backoff(pause, fails[slot])
				}
				mu.Unlock()
				if (err != nil || !worked) && !sleep(ctx, pause) {
					return
				}
			}
		}()
	}
	wg.Wait()
	return giveUp
}

func sleep(ctx context.Context, d time.Duration) bool {
	select {
	case <-time.After(d):
		return true
	case <-ctx.Done():
		return false
	}
}

// RunOne leases and executes at most one cell. worked is false when
// the queue was empty; err reports transport-level trouble (an
// executing cell's own failure is reported to the coordinator, not
// returned here).
func (w *Worker) RunOne(ctx context.Context) (worked bool, err error) {
	info, ok, err := w.lease(ctx)
	if err != nil || !ok {
		return false, err
	}

	// Heartbeat at a third of the TTL while the (possibly minutes-long)
	// simulation runs, so only real worker death requeues the cell.
	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	if info.TTLMS > 0 {
		go w.heartbeatLoop(hbCtx, info.Lease, time.Duration(info.TTLMS)*time.Millisecond/3)
	}

	// Events counts fired simulator events, or explored states for a
	// check cell.
	t0 := time.Now()
	report, events, runErr := runCell(info.Spec)
	wall := time.Since(t0)
	stopHB()
	req := CompleteRequest{
		Lease:  info.Lease,
		WallMS: float64(wall.Nanoseconds()) / 1e6,
	}
	if runErr != nil {
		req.Err = runErr.Error()
	} else {
		req.Report = report
		req.Events = events
	}
	// Post the result even if Run was cancelled while the cell ran, so
	// the cell is done now instead of running again once its lease
	// expires.
	cctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), completeTimeout)
	defer cancel()
	return true, w.complete(cctx, req)
}

func (w *Worker) heartbeatLoop(ctx context.Context, leaseID string, every time.Duration) {
	if every <= 0 {
		return
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			body, _ := json.Marshal(heartbeatRequest{Lease: leaseID})
			resp, err := w.post(ctx, "/api/v1/heartbeat", body)
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusGone {
					return // lease lost; completion will be rejected
				}
			}
		}
	}
}

func (w *Worker) lease(ctx context.Context) (LeaseInfo, bool, error) {
	body, _ := json.Marshal(leaseRequest{Worker: w.Name})
	resp, err := w.post(ctx, "/api/v1/lease", body)
	if err != nil {
		return LeaseInfo{}, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent:
		return LeaseInfo{}, false, nil
	case http.StatusOK:
		var info LeaseInfo
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			return LeaseInfo{}, false, fmt.Errorf("parsing lease: %w", err)
		}
		return info, true, nil
	default:
		return LeaseInfo{}, false, httpError(resp)
	}
}

func (w *Worker) complete(ctx context.Context, req CompleteRequest) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := w.post(ctx, "/api/v1/complete", body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusGone {
		// Lease expired mid-run and the cell was requeued; by
		// determinism whoever re-runs it produces the same bytes, so
		// dropping this result is safe.
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		return httpError(resp)
	}
	return nil
}

func (w *Worker) post(ctx context.Context, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Server+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return w.client().Do(req)
}

func httpError(resp *http.Response) error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return fmt.Errorf("%s: %s", resp.Status, e.Error)
	}
	return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(data))
}
