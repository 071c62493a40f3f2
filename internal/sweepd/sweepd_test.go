package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"denovogpu"
	"denovogpu/internal/resultcache"
)

// fakeClock is an injectable, advanceable time source.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t = f.t.Add(d)
}

func newTestServer(t *testing.T, opts Options) (*Coordinator, *httptest.Server, *Client) {
	t.Helper()
	if opts.Version == "" {
		opts.Version = "test-v1"
	}
	coord := New(opts)
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(srv.Close)
	return coord, srv, &Client{Base: srv.URL}
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func smallSpec(workloads ...string) denovogpu.MatrixSpec {
	var cells []denovogpu.CellSpec
	for _, w := range workloads {
		cells = append(cells, denovogpu.CellSpec{Config: denovogpu.ConfigSpec{Name: "GD"}, Workload: w})
	}
	return denovogpu.MatrixSpec{Cells: cells}
}

// TestGoldenSweepDistributed is the end-to-end differential wall in
// miniature: the full 44-cell pinned matrix submitted to an HTTP
// coordinator, executed by two concurrent pull workers, must reproduce
// every committed golden file byte-for-byte; an identical re-submit
// must then complete entirely from the result cache.
func TestGoldenSweepDistributed(t *testing.T) {
	if testing.Short() {
		t.Skip("full pinned matrix in -short mode")
	}
	cache, err := resultcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	coord, srv, client := newTestServer(t, Options{Cache: cache})
	_ = coord

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

	cells := denovogpu.PinnedCells()
	sr, err := client.Submit(ctx, denovogpu.MatrixSpec{Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Deduped {
		t.Fatal("fresh submit reported deduped")
	}
	status, err := client.Wait(ctx, sr.Status.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if status.State != "done" || status.Done != len(cells) || status.Failed != 0 {
		t.Fatalf("cold job finished %+v", status)
	}
	if status.CacheHits != 0 {
		t.Errorf("cold run had %d cache hits; cache should have been empty", status.CacheHits)
	}

	for i, cs := range cells {
		got, err := client.CellReport(ctx, status.ID, i)
		if err != nil {
			t.Fatalf("cell %d report: %v", i, err)
		}
		path := filepath.Join("..", "machine", "testdata", "golden",
			denovogpu.ReportFileName(cs.Workload, cs.Config.Name))
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("cell %d golden: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("cell %d (%s under %s) diverges from %s", i, cs.Workload, cs.Config.Name, path)
		}
	}

	// Warm re-submit: same spec, fresh job, zero simulations.
	sr2, err := client.Submit(ctx, denovogpu.MatrixSpec{Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	if sr2.Deduped || sr2.Status.ID == status.ID {
		t.Fatalf("finished job deduped a re-submit: %+v", sr2)
	}
	if sr2.Status.State != "done" || sr2.Status.CacheHits != len(cells) {
		t.Fatalf("warm run not 100%% cache hits: %+v", sr2.Status)
	}
	st, err := client.CacheStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != len(cells) || st.Hits < uint64(len(cells)) {
		t.Errorf("cache stats after warm run: %+v", st)
	}
	// The cached bytes still match the goldens.
	for i, cs := range cells[:3] {
		got, err := client.CellReport(ctx, sr2.Status.ID, i)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := os.ReadFile(filepath.Join("..", "machine", "testdata", "golden",
			denovogpu.ReportFileName(cs.Workload, cs.Config.Name)))
		if !bytes.Equal(got, want) {
			t.Errorf("warm cell %d served non-golden bytes", i)
		}
	}
}

// TestWorkerDeathRequeue kills a worker mid-cell (by letting its lease
// expire on a fake clock) and checks the cell is re-leased to another
// worker, the dead worker's late completion is rejected as stale, and
// the attempt counter eventually abandons a poisonous cell.
func TestWorkerDeathRequeue(t *testing.T) {
	clock := newFakeClock()
	_, srv, client := newTestServer(t, Options{LeaseTTL: time.Minute, Now: clock.Now})
	ctx := context.Background()

	sr, err := client.Submit(ctx, smallSpec("LAVA"))
	if err != nil {
		t.Fatal(err)
	}

	// Worker 1 leases the cell, then dies.
	resp := postJSON(t, srv.URL+"/api/v1/lease", leaseRequest{Worker: "doomed"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lease status %d", resp.StatusCode)
	}
	l1 := decode[LeaseInfo](t, resp)
	if l1.Cell != 0 || l1.Spec.Workload != "LAVA" {
		t.Fatalf("leased %+v", l1)
	}

	// Before the TTL passes, nobody else can steal the cell.
	resp = postJSON(t, srv.URL+"/api/v1/lease", leaseRequest{Worker: "w2"})
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("cell double-leased: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// TTL expires; the cell requeues and worker 2 picks it up.
	clock.Advance(2 * time.Minute)
	resp = postJSON(t, srv.URL+"/api/v1/lease", leaseRequest{Worker: "w2"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("expired cell not re-leased: status %d", resp.StatusCode)
	}
	l2 := decode[LeaseInfo](t, resp)
	if l2.Cell != 0 || l2.Lease == l1.Lease {
		t.Fatalf("re-lease %+v (old %+v)", l2, l1)
	}

	// The dead worker's completion and heartbeat are rejected as stale.
	resp = postJSON(t, srv.URL+"/api/v1/complete", CompleteRequest{Lease: l1.Lease, Report: []byte("{}\n")})
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("stale completion accepted: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = postJSON(t, srv.URL+"/api/v1/heartbeat", heartbeatRequest{Lease: l1.Lease})
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("stale heartbeat accepted: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// A heartbeat keeps worker 2's lease alive across a TTL.
	clock.Advance(45 * time.Second)
	resp = postJSON(t, srv.URL+"/api/v1/heartbeat", heartbeatRequest{Lease: l2.Lease})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live heartbeat rejected: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	clock.Advance(45 * time.Second) // 90s since lease, 45s since heartbeat
	resp = postJSON(t, srv.URL+"/api/v1/lease", leaseRequest{Worker: "w3"})
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("heartbeated cell stolen: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Let the remaining attempts burn out: the cell fails rather than
	// wedging the job forever.
	for attempt := 2; attempt <= maxAttempts; attempt++ {
		clock.Advance(2 * time.Minute)
		resp = postJSON(t, srv.URL+"/api/v1/lease", leaseRequest{Worker: "w4"})
		if attempt < maxAttempts {
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("attempt %d: status %d", attempt, resp.StatusCode)
			}
			decode[LeaseInfo](t, resp)
		} else {
			// After the final expiry the reaper abandons the cell; the
			// lease call sees no work.
			if resp.StatusCode != http.StatusNoContent {
				t.Fatalf("abandoned cell still leased: status %d", resp.StatusCode)
			}
			resp.Body.Close()
		}
	}
	status, err := client.Job(ctx, sr.Status.ID)
	if err != nil {
		t.Fatal(err)
	}
	if status.State != "failed" || status.Failed != 1 || status.ErrorCell != 0 {
		t.Fatalf("poison cell end state %+v", status)
	}
	if !strings.Contains(status.Error, "worker death") {
		t.Errorf("error %q does not name worker death", status.Error)
	}
}

// TestDuplicateSubmitDedupe: an identical spec submitted while the
// first job is still running joins it; after completion a re-submit is
// a fresh job.
func TestDuplicateSubmitDedupe(t *testing.T) {
	cache, err := resultcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, srv, client := newTestServer(t, Options{Cache: cache})
	ctx := context.Background()

	sr1, err := client.Submit(ctx, smallSpec("LAVA"))
	if err != nil {
		t.Fatal(err)
	}
	if sr1.Deduped {
		t.Fatal("first submit deduped")
	}

	// Identical spec → the active job, HTTP 200 not 201.
	resp := postJSON(t, srv.URL+"/api/v1/jobs", smallSpec("LAVA"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("duplicate submit status %d, want 200", resp.StatusCode)
	}
	dup := decode[SubmitResponse](t, resp)
	if !dup.Deduped || dup.Status.ID != sr1.Status.ID {
		t.Fatalf("duplicate submit %+v, want dedupe onto %s", dup, sr1.Status.ID)
	}

	// A *different* spec is its own job.
	sr2, err := client.Submit(ctx, smallSpec("ST"))
	if err != nil {
		t.Fatal(err)
	}
	if sr2.Deduped || sr2.Status.ID == sr1.Status.ID {
		t.Fatalf("distinct spec deduped: %+v", sr2)
	}

	// Run both jobs to completion with one worker.
	ctx2, cancel := context.WithCancel(ctx)
	w := &Worker{Server: srv.URL, Name: "w1", IdlePoll: 5 * time.Millisecond}
	done := make(chan struct{})
	go func() { defer close(done); _ = w.Run(ctx2) }()
	if _, err := client.Wait(ctx, sr1.Status.ID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Wait(ctx, sr2.Status.ID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	cancel()
	<-done

	// Finished jobs never dedupe: the re-submit is a new job, completed
	// instantly from the cache.
	sr3, err := client.Submit(ctx, smallSpec("LAVA"))
	if err != nil {
		t.Fatal(err)
	}
	if sr3.Deduped || sr3.Status.ID == sr1.Status.ID {
		t.Fatalf("finished job deduped: %+v", sr3)
	}
	if sr3.Status.State != "done" || sr3.Status.CacheHits != 1 {
		t.Fatalf("warm re-submit %+v, want immediate cache completion", sr3.Status)
	}
}

// TestFailFastAndEventStream drives a 3-cell fail-fast job whose middle
// cell fails: the trailing cell is skipped, the job error is the
// lowest-index failure, and the NDJSON stream carries the full
// lifecycle in order.
func TestFailFastAndEventStream(t *testing.T) {
	origRun := runCell
	runCell = func(s denovogpu.CellSpec) ([]byte, uint64, error) {
		if s.Workload == "ST" {
			return nil, 0, errors.New("injected fault")
		}
		return origRun(s)
	}
	t.Cleanup(func() { runCell = origRun })

	_, srv, client := newTestServer(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &Worker{Server: srv.URL, Name: "w1", IdlePoll: 5 * time.Millisecond}
	go func() { _ = w.Run(ctx) }()

	sr, err := client.Submit(ctx, smallSpec("LAVA", "ST", "NN"))
	if err != nil {
		t.Fatal(err)
	}
	status, err := client.Wait(ctx, sr.Status.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if status.State != "failed" || status.Done != 1 || status.Failed != 1 || status.Skipped != 1 {
		t.Fatalf("fail-fast end state %+v", status)
	}
	if status.ErrorCell != 1 || !strings.Contains(status.Error, "injected fault") {
		t.Fatalf("job error = cell %d %q, want cell 1's injected fault", status.ErrorCell, status.Error)
	}

	// The event stream replays the whole job and terminates (the job is
	// finalized, so follow mode must not hang).
	var events []Event
	streamCtx, streamCancel := context.WithTimeout(ctx, 10*time.Second)
	defer streamCancel()
	if err := client.StreamEvents(streamCtx, status.ID, func(ev Event) error {
		events = append(events, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	final := map[int]CellState{}
	for i, ev := range events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		if ev.State.Terminal() {
			final[ev.Cell] = ev.State
		}
	}
	want := map[int]CellState{0: StateDone, 1: StateFailed, 2: StateSkipped}
	for cell, state := range want {
		if final[cell] != state {
			t.Errorf("cell %d final state %q, want %q (events: %+v)", cell, final[cell], state, events)
		}
	}
	// A failed job's report endpoints refuse non-done cells.
	if _, err := client.CellReport(ctx, status.ID, 1); err == nil {
		t.Error("failed cell served a report")
	}

	// keep_going: the same spec with KeepGoing runs every cell.
	spec := smallSpec("LAVA", "ST", "NN")
	spec.KeepGoing = true
	sr2, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	status2, err := client.Wait(ctx, sr2.Status.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if status2.Done != 2 || status2.Failed != 1 || status2.Skipped != 0 {
		t.Fatalf("keep-going end state %+v", status2)
	}
}

// TestSubmitValidation: bad specs are rejected whole, before any cell
// could run.
func TestSubmitValidation(t *testing.T) {
	_, srv, client := newTestServer(t, Options{})
	ctx := context.Background()

	if _, err := client.Submit(ctx, denovogpu.MatrixSpec{}); err == nil {
		t.Error("empty spec accepted")
	}
	if _, err := client.Submit(ctx, smallSpec("NOPE")); err == nil {
		t.Error("unknown workload accepted")
	}
	spec := smallSpec("LAVA")
	spec.Cells[0].Seed = 7 // LAVA is not seedable
	if _, err := client.Submit(ctx, spec); err == nil {
		t.Error("seeded fixed-input workload accepted")
	}
	// Unknown JSON fields are rejected (catches client/coordinator skew),
	// among them the retired DeNovo extension switches in a raw config
	// and a check cell still choosing an explorer (DPOR is the only one).
	for _, body := range []string{
		`{"cells":[],"bogus":1}`,
		`{"cells":[{"config":{"name":"DD"},"program":"MP","explorer":"dpor"}]}`,
		`{"cells":[{"config":{"config":{"Protocol":1,"SyncBackoff":true}},"workload":"LAVA"}]}`,
		`{"cells":[{"config":{"config":{"Protocol":1,"DirectTransfer":true}},"workload":"LAVA"}]}`,
		`{"cells":[{"config":{"config":{"Protocol":1,"NoMSHRCoalescing":true}},"workload":"LAVA"}]}`,
	} {
		resp, err := http.Post(srv.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "unknown field") {
			t.Errorf("%s: status %d (%s), want 400 for an unknown field", body, resp.StatusCode, msg)
		}
	}
	// Machine shapes New cannot build, or too small for the workload,
	// answer 400 instead of queueing a cell whose worker would panic or
	// hang.
	for _, cell := range []string{
		`{"config":{"config":{"Protocol":2}},"workload":"LAVA"}`, // the retired MESI value
		`{"config":{"config":{"Protocol":1,"NumCUs":100}},"workload":"LAVA"}`,
		`{"config":{"config":{"Protocol":1,"NumCUs":-3}},"workload":"LAVA"}`,
		`{"config":{"name":"DD","devices":-1},"workload":"LAVA"}`,
		`{"config":{"name":"DD"},"workload":"TB_LGx2"}`, // sized for 2 devices
	} {
		resp, err := http.Post(srv.URL+"/api/v1/jobs", "application/json",
			strings.NewReader(`{"cells":[`+cell+`]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("unbuildable cell %s: status %d, want 400", cell, resp.StatusCode)
		}
	}
	// Unknown job/cell lookups 404.
	if _, err := client.Job(ctx, "j999"); err == nil {
		t.Error("unknown job found")
	}
	if _, err := client.CellReport(ctx, "j999", 0); err == nil {
		t.Error("unknown job's report served")
	}
}

// oversizedSpec is a 2,237-byte body naming 100,000 cells: ten DD
// configs × ten BFS workloads × a thousand default seeds.
func oversizedSpec() string {
	list := func(item string, n int) string { return strings.TrimSuffix(strings.Repeat(item+",", n), ",") }
	return `{"configs":[` + list(`{"name":"DD"}`, 10) + `],"workloads":[` + list(`"BFS"`, 10) +
		`],"seeds":[` + list("0", 1000) + `]}`
}

// TestSubmitRejectsOversizedMatrix: a spec whose product passes
// denovogpu.MaxMatrixCells answers 400 without being expanded, and so
// does a body past maxSubmitBytes.
func TestSubmitRejectsOversizedMatrix(t *testing.T) {
	coord, srv, _ := newTestServer(t, Options{})
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	body := oversizedSpec()
	if len(body) != 2237 {
		t.Fatalf("oversized spec is %d bytes, want 2237", len(body))
	}
	if code := post(body); code != http.StatusBadRequest {
		t.Errorf("100,000-cell spec: status %d, want 400", code)
	}
	var spec denovogpu.MatrixSpec
	if err := json.Unmarshal([]byte(body), &spec); err != nil {
		t.Fatal(err)
	}
	// Expanding would allocate every CellSpec and key: 100,000 at least.
	if allocs := testing.AllocsPerRun(1, func() {
		if _, _, err := coord.Submit(spec); err == nil {
			t.Error("100,000-cell spec accepted")
		}
	}); allocs > 10 {
		t.Errorf("refusing the spec made %.0f allocations; it was expanded", allocs)
	}
	if code := post(`{"cells":[` + strings.Repeat(" ", maxSubmitBytes) + `]}`); code != http.StatusBadRequest {
		t.Errorf("body past %d bytes: status %d, want 400", maxSubmitBytes, code)
	}
}

// TestSubmitFloodAllocation: a body that fills maxSubmitBytes with
// empty cells (or empty configs) is refused once the list passes
// denovogpu.MaxMatrixCells, not after decoding all 349,521 entries.
func TestSubmitFloodAllocation(t *testing.T) {
	coord := New(Options{Version: "test-v1"})
	for _, list := range []string{"cells", "configs"} {
		n := (maxSubmitBytes - len(`{"`+list+`":[]}`) + 1) / 3
		body := `{"` + list + `":[` + strings.TrimSuffix(strings.Repeat("{},", n), ",") + `]}`
		if n <= denovogpu.MaxMatrixCells || len(body) > maxSubmitBytes {
			t.Fatalf("%d %s in %d bytes", n, list, len(body))
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rec := httptest.NewRecorder()
		coord.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/jobs", strings.NewReader(body)))
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%d %s: status %d, want 400", n, list, rec.Code)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 32<<20 {
			t.Errorf("refusing %d %s in %d bytes allocated %d MB, want under 32 MB", n, list, len(body), alloc>>20)
		}
	}
}
