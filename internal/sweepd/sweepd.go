// Package sweepd is the simulation-sweep service behind cmd/sweepd: a
// coordinator that accepts matrix specs (api.MatrixSpec), shards their
// cells across pull-based workers, streams per-cell progress as NDJSON
// events, and dedupes work through a content-addressed result cache
// (internal/resultcache keyed by api.CellKey). Simulation and check
// cells take the same path: the service only calls api.CellSpec's
// methods and never asks which kind a cell is.
//
// Determinism is the service's contract, inherited from the simulator:
// a cell's canonical report (api.CellSpec.Run) depends only on what
// api.CellKey hashes, never on which worker ran it or in what order
// cells completed. That makes distribution and
// caching *verifiable* — a cached or remotely-computed cell is correct
// iff its bytes match the serial golden — and it makes the job-level
// error deterministic: a finished job's error is the lowest-index
// failed cell's error, exactly like api.RunMatrix.
//
// Scheduling is index-ordered: the queue hands out the lowest-index
// queued cell of the oldest job. Workers hold time-limited leases; a
// lease that expires (worker death mid-cell) requeues its cell, and a
// completion arriving on an expired lease is rejected as stale, so a
// cell never has two live owners.
package sweepd

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"denovogpu"
	"denovogpu/internal/resultcache"
)

// CellState is the lifecycle of one cell.
type CellState string

const (
	StateQueued  CellState = "queued"
	StateRunning CellState = "running"
	StateDone    CellState = "done"
	StateFailed  CellState = "failed"
	StateSkipped CellState = "skipped"
)

// Terminal reports whether a cell in this state is finished.
func (s CellState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateSkipped
}

// Event is one NDJSON progress record on a job's event stream. Every
// cell transition emits one; Seq orders them within a job.
type Event struct {
	Seq      int       `json:"seq"`
	Job      string    `json:"job"`
	Cell     int       `json:"cell"`
	Workload string    `json:"workload"`
	Config   string    `json:"config"`
	Seed     uint64    `json:"seed,omitempty"`
	State    CellState `json:"state"`
	Attempt  int       `json:"attempt,omitempty"`
	Worker   string    `json:"worker,omitempty"`
	CacheHit bool      `json:"cache_hit,omitempty"`
	WallMS   float64   `json:"wall_ms,omitempty"`
	Events   uint64    `json:"events,omitempty"`
	Err      string    `json:"error,omitempty"`
}

// JobStatus is the summary the status endpoint returns.
type JobStatus struct {
	ID        string `json:"id"`
	State     string `json:"state"` // running | done | failed
	Cells     int    `json:"cells"`
	Queued    int    `json:"queued"`
	Running   int    `json:"running"`
	Done      int    `json:"done"`
	Failed    int    `json:"failed"`
	Skipped   int    `json:"skipped"`
	CacheHits int    `json:"cache_hits"`
	// Error is the lowest-index failed cell's error (api.RunMatrix's
	// deterministic convention); ErrorCell is its index, -1 when none.
	Error     string  `json:"error,omitempty"`
	ErrorCell int     `json:"error_cell"`
	WallMS    float64 `json:"wall_ms"`
	KeepGoing bool    `json:"keep_going,omitempty"`
}

// maxAttempts bounds how often a cell is re-leased after lease
// expiries before the coordinator declares it poisonous and fails it
// (a cell that kills every worker that touches it must not wedge the
// job forever).
const maxAttempts = 3

type cell struct {
	index    int
	spec     denovogpu.CellSpec
	workload string
	config   string
	key      string

	state    CellState
	attempts int
	worker   string
	leaseID  string
	cacheHit bool
	wallMS   float64
	events   uint64
	errMsg   string
	report   []byte
}

type job struct {
	id        string
	specHash  string
	keepGoing bool
	created   time.Time
	cells     []*cell
	events    []Event
	cond      *sync.Cond // signaled on every event append and at finalize
	finalized bool
	state     string // running | done | failed
	wallMS    float64
}

type lease struct {
	id       string
	jobID    string
	cellIdx  int
	worker   string
	deadline time.Time
}

// Options configure a Coordinator.
type Options struct {
	// Cache dedupes cell results; nil disables caching.
	Cache *resultcache.Cache
	// LeaseTTL is how long a worker may hold a cell without
	// heartbeating before it is presumed dead and the cell requeued.
	// 0 selects 60s.
	LeaseTTL time.Duration
	// Version is the code version folded into cache keys; ""
	// selects api.CodeVersion().
	Version string
	// Now is the clock (tests inject a fake one); nil selects time.Now.
	Now func() time.Time
}

// Coordinator owns the job store, the lease table and the cache.
type Coordinator struct {
	cache    *resultcache.Cache
	leaseTTL time.Duration
	version  string
	now      func() time.Time

	mu        sync.Mutex
	jobs      map[string]*job
	jobOrder  []string
	active    map[string]string // specHash -> unfinalized job id (duplicate-submit dedupe)
	leases    map[string]*lease
	nextJob   int
	nextLease int
}

// New returns a Coordinator.
func New(opts Options) *Coordinator {
	c := &Coordinator{
		cache:    opts.Cache,
		leaseTTL: opts.LeaseTTL,
		version:  opts.Version,
		now:      opts.Now,
		jobs:     make(map[string]*job),
		active:   make(map[string]string),
		leases:   make(map[string]*lease),
	}
	if c.leaseTTL <= 0 {
		c.leaseTTL = 60 * time.Second
	}
	if c.version == "" {
		c.version = denovogpu.CodeVersion()
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Version returns the code version cache keys are computed against.
func (c *Coordinator) Version() string { return c.version }

// CacheStats returns the result cache's counters (zero Stats when the
// coordinator runs cacheless).
func (c *Coordinator) CacheStats() resultcache.Stats {
	if c.cache == nil {
		return resultcache.Stats{}
	}
	return c.cache.Stats()
}

// Submit resolves and enqueues a matrix spec. A spec expanding past
// denovogpu.MaxMatrixCells is refused before it is expanded. Every cell
// is validated and keyed up front (CellKey resolves the cell) — an
// unresolvable spec is rejected whole, so a job never discovers a bad
// cell halfway through. Cells whose key is already in the result cache
// complete immediately as cache hits.
//
// An identical spec already running (same canonical cell-key list and
// keep_going flag) is not enqueued twice: Submit returns the active
// job with deduped=true. Finished jobs never dedupe — a re-submit
// after completion is a fresh job whose cells all hit the cache.
func (c *Coordinator) Submit(spec denovogpu.MatrixSpec) (JobStatus, bool, error) {
	switch n, ok := spec.CellCount(); {
	case !ok:
		return JobStatus{}, false, fmt.Errorf("sweepd: matrix spec expands to more than %d cells", denovogpu.MaxMatrixCells)
	case n == 0:
		return JobStatus{}, false, errors.New("sweepd: empty matrix spec")
	}
	specs := spec.CellSpecs()
	cells := make([]*cell, len(specs))
	hash := sha256.New()
	fmt.Fprintf(hash, "keep_going=%t\n", spec.KeepGoing)
	for i, s := range specs {
		key, err := denovogpu.CellKey(c.version, s)
		if err != nil {
			return JobStatus{}, false, fmt.Errorf("sweepd: cell %d: %w", i, err)
		}
		workload, config := s.Label()
		cells[i] = &cell{index: i, spec: s, workload: workload, config: config, key: key, state: StateQueued}
		fmt.Fprintf(hash, "%s\n", key)
	}
	specHash := hex.EncodeToString(hash.Sum(nil))

	c.mu.Lock()
	defer c.mu.Unlock()
	if id, ok := c.active[specHash]; ok {
		return c.statusLocked(c.jobs[id]), true, nil
	}
	c.nextJob++
	j := &job{
		id:        fmt.Sprintf("j%d", c.nextJob),
		specHash:  specHash,
		keepGoing: spec.KeepGoing,
		created:   c.now(),
		cells:     cells,
		state:     "running",
	}
	j.cond = sync.NewCond(&c.mu)
	c.jobs[j.id] = j
	c.jobOrder = append(c.jobOrder, j.id)
	c.active[specHash] = j.id

	for _, cl := range cells {
		c.emitLocked(j, cl, StateQueued)
		if report, hit := c.cacheGet(cl.key); hit {
			cl.state = StateDone
			cl.cacheHit = true
			cl.report = report
			c.emitLocked(j, cl, StateDone)
		}
	}
	c.maybeFinalizeLocked(j)
	return c.statusLocked(j), false, nil
}

// cacheGet is a miss-on-error cache read: a corrupt entry has already
// been deleted by the cache, and the cell simply re-simulates.
func (c *Coordinator) cacheGet(key string) ([]byte, bool) {
	if c.cache == nil {
		return nil, false
	}
	data, ok, _ := c.cache.Get(key)
	return data, ok
}

// emitLocked appends a progress event reflecting cl's current state.
func (c *Coordinator) emitLocked(j *job, cl *cell, state CellState) {
	j.events = append(j.events, Event{
		Seq:      len(j.events),
		Job:      j.id,
		Cell:     cl.index,
		Workload: cl.workload,
		Config:   cl.config,
		Seed:     cl.spec.Seed,
		State:    state,
		Attempt:  cl.attempts,
		Worker:   cl.worker,
		CacheHit: cl.cacheHit,
		WallMS:   cl.wallMS,
		Events:   cl.events,
		Err:      cl.errMsg,
	})
	j.cond.Broadcast()
}

// Lease hands the named worker the lowest-index queued cell of the
// oldest unfinished job, expiring dead workers' leases first. ok is
// false when no work is available.
func (c *Coordinator) Lease(worker string) (LeaseInfo, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked()
	for _, id := range c.jobOrder {
		j := c.jobs[id]
		if j.finalized {
			continue
		}
		for _, cl := range j.cells {
			if cl.state != StateQueued {
				continue
			}
			c.nextLease++
			l := &lease{
				id:       fmt.Sprintf("l%d", c.nextLease),
				jobID:    j.id,
				cellIdx:  cl.index,
				worker:   worker,
				deadline: c.now().Add(c.leaseTTL),
			}
			c.leases[l.id] = l
			cl.state = StateRunning
			cl.attempts++
			cl.worker = worker
			cl.leaseID = l.id
			c.emitLocked(j, cl, StateRunning)
			return LeaseInfo{
				Lease: l.id,
				Job:   j.id,
				Cell:  cl.index,
				Spec:  cl.spec,
				Key:   cl.key,
				TTLMS: c.leaseTTL.Milliseconds(),
			}, true
		}
	}
	return LeaseInfo{}, false
}

// LeaseInfo describes one leased cell, as returned to a worker.
type LeaseInfo struct {
	Lease string             `json:"lease"`
	Job   string             `json:"job"`
	Cell  int                `json:"cell"`
	Spec  denovogpu.CellSpec `json:"spec"`
	Key   string             `json:"key"`
	TTLMS int64              `json:"ttl_ms"`
}

// reapLocked requeues cells whose lease expired (the worker died or
// lost connectivity mid-cell). A cell that has burned maxAttempts
// leases is declared failed instead of requeued, so a crash-inducing
// cell cannot wedge its job forever.
func (c *Coordinator) reapLocked() {
	now := c.now()
	for id, l := range c.leases {
		if !now.After(l.deadline) {
			continue
		}
		delete(c.leases, id)
		j := c.jobs[l.jobID]
		cl := j.cells[l.cellIdx]
		if cl.state != StateRunning || cl.leaseID != l.id {
			continue // already completed or re-owned
		}
		cl.leaseID = ""
		cl.worker = ""
		if cl.attempts >= maxAttempts {
			cl.state = StateFailed
			cl.errMsg = fmt.Sprintf("sweepd: lease expired %d times (worker death?); cell abandoned", cl.attempts)
			c.emitLocked(j, cl, StateFailed)
			c.failFastLocked(j)
			c.maybeFinalizeLocked(j)
			continue
		}
		cl.state = StateQueued
		c.emitLocked(j, cl, StateQueued)
	}
}

// RequeueExpired runs one reap pass (the HTTP layer calls this from a
// ticker so jobs finish even when every worker is gone).
func (c *Coordinator) RequeueExpired() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked()
}

// Heartbeat extends a live lease; ok is false if the lease has already
// expired or completed (the worker should abandon the cell — its
// result would be rejected as stale anyway).
func (c *Coordinator) Heartbeat(leaseID string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked()
	l, ok := c.leases[leaseID]
	if !ok {
		return false
	}
	l.deadline = c.now().Add(c.leaseTTL)
	return true
}

// CompleteRequest is a worker's end-of-cell report. Report carries the
// canonical report bytes (api.MarshalReport) — transported base64 so
// no JSON round-trip can reformat them — and must be empty iff Err is
// set.
type CompleteRequest struct {
	Lease  string  `json:"lease"`
	Report []byte  `json:"report_b64,omitempty"` // []byte marshals as base64
	WallMS float64 `json:"wall_ms"`
	Events uint64  `json:"events,omitempty"`
	Err    string  `json:"error,omitempty"`
}

// ErrStaleLease rejects a completion whose lease expired and was
// requeued (or never existed): the cell has moved on, possibly to
// another worker, and late bytes are dropped. Determinism makes this
// harmless — were the cell re-run, the replacement bytes are
// identical.
var ErrStaleLease = errors.New("sweepd: stale lease")

// Complete finishes a leased cell.
func (c *Coordinator) Complete(req CompleteRequest) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked()
	l, ok := c.leases[req.Lease]
	if !ok {
		return ErrStaleLease
	}
	delete(c.leases, req.Lease)
	j := c.jobs[l.jobID]
	cl := j.cells[l.cellIdx]
	if cl.state != StateRunning || cl.leaseID != l.id {
		return ErrStaleLease
	}
	cl.leaseID = ""
	cl.wallMS = req.WallMS
	cl.events = req.Events
	if req.Err != "" {
		cl.state = StateFailed
		cl.errMsg = req.Err
		c.emitLocked(j, cl, StateFailed)
		c.failFastLocked(j)
	} else {
		if len(req.Report) == 0 {
			cl.state = StateFailed
			cl.errMsg = "sweepd: worker completed without a report"
			c.emitLocked(j, cl, StateFailed)
			c.failFastLocked(j)
		} else {
			cl.state = StateDone
			cl.report = req.Report
			if c.cache != nil {
				// A Put failure only costs future cache hits.
				_ = c.cache.Put(cl.key, req.Report)
			}
			c.emitLocked(j, cl, StateDone)
		}
	}
	c.maybeFinalizeLocked(j)
	return nil
}

// failFastLocked skips every still-queued cell of a fail-fast job
// after a failure (api.RunMatrix semantics: in-flight cells finish,
// unstarted cells are skipped).
func (c *Coordinator) failFastLocked(j *job) {
	if j.keepGoing {
		return
	}
	for _, cl := range j.cells {
		if cl.state == StateQueued {
			cl.state = StateSkipped
			cl.errMsg = "sweepd: cell skipped after earlier failure"
			c.emitLocked(j, cl, StateSkipped)
		}
	}
}

// maybeFinalizeLocked closes the job once every cell is terminal.
func (c *Coordinator) maybeFinalizeLocked(j *job) {
	if j.finalized {
		return
	}
	for _, cl := range j.cells {
		if !cl.state.Terminal() {
			return
		}
	}
	j.finalized = true
	j.state = "done"
	for _, cl := range j.cells {
		if cl.state == StateFailed || cl.state == StateSkipped {
			j.state = "failed"
			break
		}
	}
	j.wallMS = float64(c.now().Sub(j.created).Nanoseconds()) / 1e6
	delete(c.active, j.specHash)
	j.cond.Broadcast()
}

// statusLocked snapshots a job summary.
func (c *Coordinator) statusLocked(j *job) JobStatus {
	s := JobStatus{
		ID:        j.id,
		State:     j.state,
		Cells:     len(j.cells),
		ErrorCell: -1,
		KeepGoing: j.keepGoing,
		WallMS:    j.wallMS,
	}
	if !j.finalized {
		s.WallMS = float64(c.now().Sub(j.created).Nanoseconds()) / 1e6
	}
	for _, cl := range j.cells {
		switch cl.state {
		case StateQueued:
			s.Queued++
		case StateRunning:
			s.Running++
		case StateDone:
			s.Done++
		case StateFailed:
			s.Failed++
		case StateSkipped:
			s.Skipped++
		}
		if cl.cacheHit {
			s.CacheHits++
		}
		if s.ErrorCell < 0 && cl.state == StateFailed {
			s.Error = fmt.Sprintf("%s under %s: %s", cl.workload, cl.config, cl.errMsg)
			s.ErrorCell = cl.index
		}
	}
	return s
}

// Job returns a job's summary.
func (c *Coordinator) Job(id string) (JobStatus, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return c.statusLocked(j), true
}

// Jobs returns every job's summary in submission order.
func (c *Coordinator) Jobs() []JobStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]JobStatus, 0, len(c.jobOrder))
	for _, id := range c.jobOrder {
		out = append(out, c.statusLocked(c.jobs[id]))
	}
	return out
}

// CellReport returns the canonical report bytes of one done cell.
func (c *Coordinator) CellReport(jobID string, index int) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[jobID]
	if !ok {
		return nil, fmt.Errorf("sweepd: unknown job %q", jobID)
	}
	if index < 0 || index >= len(j.cells) {
		return nil, fmt.Errorf("sweepd: job %s has no cell %d", jobID, index)
	}
	cl := j.cells[index]
	if cl.state != StateDone {
		return nil, fmt.Errorf("sweepd: job %s cell %d is %s, not done", jobID, index, cl.state)
	}
	return cl.report, nil
}

// Events copies a job's event history from seq onward, and reports
// whether the job is finalized. It does not block.
func (c *Coordinator) Events(jobID string, from int) ([]Event, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[jobID]
	if !ok {
		return nil, false, fmt.Errorf("sweepd: unknown job %q", jobID)
	}
	return append([]Event(nil), j.events[min(from, len(j.events)):]...), j.finalized, nil
}

// WaitEvents blocks until the job has events past seq or is finalized
// with none pending, then returns them as Events does. The returned
// bool is true when the stream is complete (job finalized and all
// events delivered). cancel, if non-nil, aborts the wait when closed.
func (c *Coordinator) WaitEvents(jobID string, from int, cancel <-chan struct{}) ([]Event, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[jobID]
	if !ok {
		return nil, false, fmt.Errorf("sweepd: unknown job %q", jobID)
	}
	if cancel != nil {
		// A canceled waiter needs a broadcast to observe the
		// cancellation; watch the channel from the side.
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-cancel:
				c.mu.Lock()
				j.cond.Broadcast()
				c.mu.Unlock()
			case <-stop:
			}
		}()
	}
	for from >= len(j.events) && !j.finalized {
		if cancel != nil {
			select {
			case <-cancel:
				return nil, false, errors.New("sweepd: wait canceled")
			default:
			}
		}
		j.cond.Wait()
	}
	evs := append([]Event(nil), j.events[min(from, len(j.events)):]...)
	return evs, j.finalized && from+len(evs) == len(j.events), nil
}
