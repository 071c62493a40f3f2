package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"

	"denovogpu"
)

// runCell executes one cell of either kind; a seam so worker tests can
// substitute failures without building a broken workload.
var runCell = denovogpu.CellSpec.Run

// Worker is a pull-based executor: it leases cells from a coordinator
// over HTTP, runs them through the api package, and posts back
// canonical report bytes. Workers are stateless — all bookkeeping
// (cache, leases, job store) lives in the coordinator — so a worker
// can be killed at any moment and the lease TTL returns its cell to
// the queue.
type Worker struct {
	// Server is the coordinator's base URL, e.g. "http://coordinator:8080".
	Server string
	// Name identifies the worker in progress events.
	Name string
	// Client is the HTTP client; nil selects a default with sane
	// timeouts for everything but the (long-polling-free) lease calls.
	Client *http.Client
	// IdlePoll is the sleep between lease attempts when the queue is
	// empty; 0 selects 200ms.
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

// Run pulls and executes cells until ctx is canceled (its only
// non-error exit) or the coordinator becomes unreachable for longer
// than its lease TTL would tolerate anyway.
func (w *Worker) Run(ctx context.Context) error {
	consecutiveErrs := 0
	for {
		if err := ctx.Err(); err != nil {
			return nil
		}
		worked, err := w.RunOne(ctx)
		if err != nil {
			if ctx.Err() != nil {
				// The request failed because Run was cancelled, not
				// because the coordinator is unreachable.
				return nil
			}
			consecutiveErrs++
			if consecutiveErrs >= 30 {
				return fmt.Errorf("sweepd worker %s: coordinator unreachable: %w", w.Name, err)
			}
			if !sleep(ctx, w.idlePoll()) {
				return nil
			}
			continue
		}
		consecutiveErrs = 0
		if !worked {
			if !sleep(ctx, w.idlePoll()) {
				return nil
			}
		}
	}
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

	// Allocation accounting is exact when this process runs one cell at
	// a time (cmd/sweepd work default) and approximate under in-process
	// concurrency, since runtime.MemStats is process-global. Events
	// counts fired simulator events, or explored states for a check
	// cell.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	report, events, runErr := runCell(info.Spec)
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	stopHB()
	req := CompleteRequest{
		Lease:  info.Lease,
		WallMS: float64(wall.Nanoseconds()) / 1e6,
		Allocs: after.Mallocs - before.Mallocs,
	}
	if runErr != nil {
		req.Err = runErr.Error()
	} else {
		req.Report = report
		req.Events = events
	}
	return true, w.complete(ctx, req)
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
