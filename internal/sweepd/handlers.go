package sweepd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"denovogpu"
)

// Handler returns the coordinator's HTTP API:
//
//	POST /api/v1/jobs                       submit a MatrixSpec; 200 {job,...} (deduped) or 201
//	GET  /api/v1/jobs                       all job summaries
//	GET  /api/v1/jobs/{id}                  one job summary
//	GET  /api/v1/jobs/{id}/events           NDJSON event stream (replays, then follows until the job ends; ?follow=0 to dump and close)
//	GET  /api/v1/jobs/{id}/cells/{i}/report one cell's canonical report, verbatim
//	POST /api/v1/lease                      worker pulls a cell; 204 when idle
//	POST /api/v1/complete                   worker finishes a cell; 410 on a stale lease
//	POST /api/v1/heartbeat                  worker extends a lease; 410 when expired
//	GET  /api/v1/cache/stats                result-cache counters
//	GET  /healthz                           liveness
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", c.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", c.handleJobs)
	mux.HandleFunc("GET /api/v1/jobs/{id}", c.handleJob)
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", c.handleEvents)
	mux.HandleFunc("GET /api/v1/jobs/{id}/cells/{index}/report", c.handleCellReport)
	mux.HandleFunc("POST /api/v1/lease", c.handleLease)
	mux.HandleFunc("POST /api/v1/complete", c.handleComplete)
	mux.HandleFunc("POST /api/v1/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("GET /api/v1/cache/stats", c.handleCacheStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// SubmitResponse answers a job submission.
type SubmitResponse struct {
	// Deduped marks that an identical spec was already running and no
	// new job was created.
	Deduped bool      `json:"deduped,omitempty"`
	Status  JobStatus `json:"status"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// maxSubmitBytes bounds a submitted matrix spec's body. The golden job
// is 2 KB and a full catalog check split 16 ways is about 300 KB.
// DecodeMatrixSpec stops a cells list at MaxMatrixCells, so a body of
// three-byte "{}," cells cannot decode to more CellSpecs than a job
// may hold.
const maxSubmitBytes = 1 << 20

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := denovogpu.DecodeMatrixSpec(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("parsing matrix spec: %w", err))
		return
	}
	status, deduped, err := c.Submit(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	code := http.StatusCreated
	if deduped {
		code = http.StatusOK
	}
	writeJSON(w, code, SubmitResponse{Deduped: deduped, Status: status})
}

func (c *Coordinator) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Jobs())
}

func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	status, ok := c.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, status)
}

func (c *Coordinator) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	follow := r.URL.Query().Get("follow") != "0"
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	from := 0
	for {
		var evs []Event
		var complete bool
		var err error
		if follow {
			evs, complete, err = c.WaitEvents(id, from, r.Context().Done())
		} else {
			evs, complete, err = c.Events(id, from)
		}
		if err != nil {
			if from == 0 {
				writeError(w, http.StatusNotFound, err)
			}
			return
		}
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				return // client gone
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		from += len(evs)
		if complete || !follow {
			return
		}
	}
}

func (c *Coordinator) handleCellReport(w http.ResponseWriter, r *http.Request) {
	index, err := strconv.Atoi(r.PathValue("index"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad cell index %q", r.PathValue("index")))
		return
	}
	report, err := c.CellReport(r.PathValue("id"), index)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	// Verbatim canonical bytes: this body diffs clean against a golden
	// file.
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(report)
}

type leaseRequest struct {
	Worker string `json:"worker"`
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("parsing lease request: %w", err))
		return
	}
	if req.Worker == "" {
		req.Worker = "anonymous"
	}
	info, ok := c.Lease(req.Worker)
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("parsing completion: %w", err))
		return
	}
	if err := c.Complete(req); err != nil {
		if errors.Is(err, ErrStaleLease) {
			writeError(w, http.StatusGone, err)
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

type heartbeatRequest struct {
	Lease string `json:"lease"`
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("parsing heartbeat: %w", err))
		return
	}
	if !c.Heartbeat(req.Lease) {
		writeError(w, http.StatusGone, ErrStaleLease)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (c *Coordinator) handleCacheStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.CacheStats())
}

// StartReaper requeues expired leases every interval until stop is
// closed, so jobs make progress (or fail deterministically) even when
// no live worker is polling for leases.
func (c *Coordinator) StartReaper(interval time.Duration, stop <-chan struct{}) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				c.RequeueExpired()
			case <-stop:
				return
			}
		}
	}()
}
