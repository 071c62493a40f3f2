package sweepd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"denovogpu"
	"denovogpu/internal/resultcache"
)

// Client talks to a coordinator's HTTP API. The zero value with Base
// set is usable.
type Client struct {
	// Base is the coordinator's base URL, e.g. "http://localhost:8080".
	Base string
	// HTTP is the client to use; nil selects http.DefaultClient.
	HTTP *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// Submit posts a matrix spec and returns the (possibly deduped) job.
func (c *Client) Submit(ctx context.Context, spec denovogpu.MatrixSpec) (SubmitResponse, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return SubmitResponse{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/api/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return SubmitResponse{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http().Do(req)
	if err != nil {
		return SubmitResponse{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		return SubmitResponse{}, httpError(resp)
	}
	var sr SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return SubmitResponse{}, fmt.Errorf("parsing submit response: %w", err)
	}
	return sr, nil
}

// Job fetches one job's summary.
func (c *Client) Job(ctx context.Context, id string) (JobStatus, error) {
	var status JobStatus
	err := c.getJSON(ctx, "/api/v1/jobs/"+id, &status)
	return status, err
}

// CacheStats fetches the coordinator's result-cache counters.
func (c *Client) CacheStats(ctx context.Context) (resultcache.Stats, error) {
	var st resultcache.Stats
	err := c.getJSON(ctx, "/api/v1/cache/stats", &st)
	return st, err
}

func (c *Client) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// StreamEvents follows a job's NDJSON event stream from the beginning,
// calling fn for every event until the stream completes (job
// finalized), fn returns an error, or ctx ends.
func (c *Client) StreamEvents(ctx context.Context, jobID string, fn func(Event) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/api/v1/jobs/"+jobID+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("parsing event stream: %w", err)
		}
		if err := fn(ev); err != nil {
			return err
		}
	}
	return sc.Err()
}

// Wait polls until the job finalizes and returns its final summary.
func (c *Client) Wait(ctx context.Context, jobID string, poll time.Duration) (JobStatus, error) {
	if poll <= 0 {
		poll = 250 * time.Millisecond
	}
	for {
		status, err := c.Job(ctx, jobID)
		if err != nil {
			return JobStatus{}, err
		}
		if status.State != "running" {
			return status, nil
		}
		select {
		case <-ctx.Done():
			return status, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// CellReport fetches one done cell's canonical report bytes, verbatim.
func (c *Client) CellReport(ctx context.Context, jobID string, index int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/api/v1/jobs/%s/cells/%d/report", c.Base, jobID, index), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, httpError(resp)
	}
	return io.ReadAll(resp.Body)
}
