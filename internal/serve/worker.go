package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"dragonfly/internal/experiments"
	"dragonfly/internal/prof"
	"dragonfly/internal/sweep"
)

// Worker is the pull side of the dispatch protocol: dfserved -worker
// runs one. It long-polls the server for point leases (each request waits
// up to Poll for work, so a submitted job reaches an idle worker at once),
// rebuilds each lease's grid from the spec that rides in the lease, runs
// the points on the shared sweep pool, and pushes the records back. A
// renewal loop keeps the lease alive while simulations outlive the TTL;
// if the worker dies instead, the server expires the lease and re-leases
// its points — and if a slow worker completes after expiry, the server
// drops the duplicates, so crash recovery never skews results.
type Worker struct {
	// Server is the dfserved base URL ("http://host:8080").
	Server string
	// Name identifies the worker in leases and logs.
	Name string
	// Batch is the maximum points per lease (0: 4).
	Batch int
	// TTL is the lease lifetime requested (0: one minute).
	TTL time.Duration
	// Poll is the longest one lease request waits for work, and the
	// retry delay after an error (0: 500ms). The worker never asks more
	// often than once per Poll, even of a server that answers at once.
	Poll time.Duration
	// Jobs bounds concurrent simulations within a batch (0: pool width).
	Jobs int
	// Client is the HTTP client (nil: http.DefaultClient).
	Client *http.Client
	// Logf, when non-nil, receives one line per lease processed.
	Logf func(format string, args ...any)
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

func (w *Worker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return http.DefaultClient
}

// post sends one JSON request and decodes the response into out (out
// may be nil). Returns the HTTP status.
func (w *Worker) post(ctx context.Context, path string, body, out any) (int, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Server+path, bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return resp.StatusCode, fmt.Errorf("%s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	if out != nil && resp.StatusCode != http.StatusNoContent {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s: bad response: %w", path, err)
		}
	}
	return resp.StatusCode, nil
}

// Run processes leases until ctx is cancelled. An empty answer is
// re-asked at once, unless it came sooner than the requested wait (a
// server that does not long-poll): then the worker sleeps out the rest of
// Poll. Transient server errors (restarts, network blips) are retried
// after Poll — a worker is a daemon, not a batch job.
func (w *Worker) Run(ctx context.Context) error {
	batch := w.Batch
	if batch <= 0 {
		batch = 4
	}
	ttl := w.TTL
	if ttl <= 0 {
		ttl = time.Minute
	}
	poll := w.Poll
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	for {
		var lease sweep.LeaseInfo
		asked := time.Now()
		status, err := w.post(ctx, "/api/worker/lease", leaseRequest{
			Worker:      w.Name,
			MaxPoints:   batch,
			TTLSeconds:  ttl.Seconds(),
			WaitSeconds: poll.Seconds(),
		}, &lease)
		var pause time.Duration
		switch {
		case ctx.Err() != nil:
			return nil
		case err != nil:
			w.logf("worker: lease: %v", err)
			pause = poll
		case status == http.StatusNoContent:
			pause = poll - time.Since(asked)
		default:
			if err := w.process(ctx, lease, ttl); err != nil {
				if ctx.Err() != nil {
					return nil
				}
				w.logf("worker: lease %s: %v", lease.LeaseID, err)
			}
			continue
		}
		if pause > 0 {
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(pause):
			}
		}
	}
}

// process runs one lease's points and pushes the records back.
func (w *Worker) process(ctx context.Context, lease sweep.LeaseInfo, ttl time.Duration) error {
	var spec experiments.Spec
	if err := json.Unmarshal(lease.Spec, &spec); err != nil {
		return fmt.Errorf("bad spec in lease: %w", err)
	}
	if err := spec.Normalize(); err != nil {
		return err
	}
	grid, err := spec.Grid()
	if err != nil {
		return err
	}

	// Keep the lease alive while the batch runs; a failed renewal means
	// the server already re-leased the points, so the batch finishes and
	// the late completion is deduplicated server-side.
	renewCtx, stopRenew := context.WithCancel(ctx)
	defer stopRenew()
	go func() {
		t := time.NewTicker(ttl / 3)
		defer t.Stop()
		for {
			select {
			case <-renewCtx.Done():
				return
			case <-t.C:
				if _, err := w.post(renewCtx, "/api/worker/renew", renewRequest{
					LeaseID: lease.LeaseID, TTLSeconds: ttl.Seconds(),
				}, nil); err != nil {
					return
				}
			}
		}
	}()

	start := time.Now()
	recs := make([]sweep.Record, len(lease.Points))
	runErr := sweep.Shared().Run(len(lease.Points), sweep.RunOpts{
		MaxParallel: w.Jobs,
		Context:     ctx,
	}, func(i int) {
		cpu0 := prof.CPUSeconds()
		recs[i] = sweep.RecordOf("", grid.RunPoint(lease.Points[i]))
		recs[i].CPUSeconds = prof.CPUSeconds() - cpu0
	})
	stopRenew()
	if runErr != nil {
		return runErr // cancelled mid-batch: report nothing, let the lease lapse
	}

	var res struct {
		Applied int `json:"applied"`
	}
	if _, err := w.post(ctx, "/api/worker/complete", completeRequest{
		JobID: lease.JobID, LeaseID: lease.LeaseID, Records: recs,
	}, &res); err != nil {
		return err
	}
	w.logf("worker: %s: %d points in %v (%d applied)",
		lease.JobName, len(recs), time.Since(start).Round(time.Millisecond), res.Applied)
	return nil
}
