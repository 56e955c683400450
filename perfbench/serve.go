package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dragonfly/internal/experiments"
	"dragonfly/internal/report"
	"dragonfly/internal/serve"
	"dragonfly/internal/sweep"
	"dragonfly/internal/topology"
)

// serve_sweeps: a dispatch-only serve.Manager on a loopback listener with
// one in-process serve.Worker (one simulation at a time) pulling leases
// over HTTP. One client connection submits distinct small h=2 sweeps back
// to back; while each job runs, it issues cache-hit reads of finished jobs
// in rotation (identical resubmit, GET csv, GET records) between status
// polls. It is the only workload where serve, the sweep job store, the
// spec layer and report do most of the work; reads run beside writes,
// which hold the store mutex while they sync. A unit is one fresh job,
// from submit to its CSV; set-up is manager + listener + worker start.

const serveJobTimeout = 90 * time.Second

// serveSpec is job j's sweep: 4 mechanisms × 2 patterns × 5 loads = 40
// points. seed_base derives from the workload seed and the job index, so
// every job is a fresh fingerprint.
func serveSpec(b *bench, j int, tr *tracer) experiments.Spec {
	spec := experiments.Spec{
		H:          2,
		Warmup:     300,
		Measure:    600,
		Mechanisms: mechNames([]string{"min", "obl-rrg", "src-rrg", "in-trns-mm"}, tr),
		Patterns:   []string{"UN", "ADVc"},
		Loads:      []float64{0.1, 0.2, 0.3, 0.4, 0.5},
		SeedBase:   b.seed*100003 + uint64(j) + 1,
		SeedCount:  1,
	}
	if b.small {
		spec.Warmup, spec.Measure = 100, 200
		spec.Loads = []float64{0.2, 0.4}
	}
	return spec
}

// httpStats times the HTTP round trips of the client and the worker by
// request kind, from the request's start to its response body's close. It
// always tracks the worker's lease outcomes (so idle time that began
// before a traced job is attributed to it); latencies, spans and point
// timings are kept only while on.
type httpStats struct {
	on atomic.Bool
	tr *tracer

	mu       sync.Mutex
	lat      map[string][]float64 // ms, by kind
	empty    int                  // 204 lease answers
	idle     [][2]time.Time       // worker idle: empty lease answer → next lease request
	idleFrom time.Time
	batch    time.Time // start of the lease batch in progress
	points   []servedPoint
}

// servedPoint is one simulation point as the worker reported it.
type servedPoint struct{ wall, thru float64 }

// timedTransport is an http.RoundTripper feeding httpStats.
type timedTransport struct {
	base http.RoundTripper
	st   *httpStats
}

func requestKind(req *http.Request) string {
	p := req.URL.Path
	switch {
	case req.Method == http.MethodPost && p == "/api/jobs":
		return "submit"
	case req.Method == http.MethodPost && strings.HasPrefix(p, "/api/worker/"):
		return strings.TrimPrefix(p, "/api/worker/")
	case strings.HasSuffix(p, "/csv"):
		return "csv"
	case strings.HasSuffix(p, "/records"):
		return "records"
	case strings.HasPrefix(p, "/api/jobs/"):
		return "status"
	}
	return "other"
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	kind := requestKind(req)
	on := t.st.on.Load()
	start := time.Now()
	if kind == "lease" {
		t.st.mu.Lock()
		if !t.st.idleFrom.IsZero() {
			t.st.idle = append(t.st.idle, [2]time.Time{t.st.idleFrom, start})
			t.st.idleFrom = time.Time{}
		}
		t.st.mu.Unlock()
	}
	var body []byte
	if on && kind == "complete" && req.Body != nil {
		var err error
		if body, err = io.ReadAll(req.Body); err != nil {
			return nil, err
		}
		req.Body.Close()
		req.Body = io.NopCloser(bytes.NewReader(body))
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &closeHook{ReadCloser: resp.Body, fn: func() { t.st.done(kind, on, resp.StatusCode, start, body) }}
	return resp, nil
}

// closeHook runs fn once, when the body is closed.
type closeHook struct {
	io.ReadCloser
	once sync.Once
	fn   func()
}

func (c *closeHook) Close() error {
	err := c.ReadCloser.Close()
	c.once.Do(c.fn)
	return err
}

func (st *httpStats) done(kind string, on bool, status int, start time.Time, reqBody []byte) {
	end := time.Now()
	st.mu.Lock()
	defer st.mu.Unlock()
	if kind == "lease" {
		if status == http.StatusNoContent {
			st.idleFrom = end
		} else {
			st.batch = end
		}
	}
	if !on {
		return
	}
	switch {
	case kind == "submit" && status == http.StatusCreated:
		kind = "submit_new"
	case kind == "submit":
		kind = "submit_hit"
	case kind == "lease" && status == http.StatusNoContent:
		st.empty++
	}
	st.lat[kind] = append(st.lat[kind], end.Sub(start).Seconds()*1e3)
	st.tr.add(st.tr.id(), 0, "http."+kind, start, end)
	if kind == "complete" && len(reqBody) > 0 {
		var req struct {
			Records []sweep.Record `json:"records"`
		}
		if json.Unmarshal(reqBody, &req) == nil {
			batchID := st.tr.id()
			st.tr.add(batchID, 0, "serve.lease_batch", st.batch, start)
			// One simulation at a time: the batch's points ran back to
			// back, ending when the completion was sent.
			at := start
			for i := len(req.Records) - 1; i >= 0; i-- {
				r := req.Records[i]
				from := at.Add(-time.Duration(r.WallSeconds * float64(time.Second)))
				st.tr.add(st.tr.id(), batchID, "sweep.point", from, at)
				st.points = append(st.points, servedPoint{wall: r.WallSeconds, thru: r.Throughput})
				at = from
			}
		}
	}
}

// serveRig is one running service: manager, listener, HTTP server and the
// worker.
type serveRig struct {
	m      *serve.Manager
	srv    *http.Server
	url    string
	cancel context.CancelFunc
	served chan struct{}
	worked chan struct{}
	wt     *http.Transport
}

func startRig(dir string, st *httpStats) (*serveRig, error) {
	m, err := serve.NewManager(serve.Options{StoreDir: dir, LocalRunners: -1})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Close()
		return nil, err
	}
	r := &serveRig{
		m:      m,
		srv:    &http.Server{Handler: m.Handler()},
		url:    "http://" + ln.Addr().String(),
		served: make(chan struct{}),
		worked: make(chan struct{}),
		wt:     &http.Transport{},
	}
	go func() {
		defer close(r.served)
		r.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on stop
	}()
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	w := &serve.Worker{
		Server: r.url,
		Name:   "perfbench",
		Jobs:   1,
		Client: &http.Client{Transport: &timedTransport{base: r.wt, st: st}},
	}
	go func() {
		defer close(r.worked)
		w.Run(ctx) //nolint:errcheck // Run only returns on cancellation
	}()
	return r, nil
}

// stop shuts the worker, the server and the manager down and waits for
// each goroutine the rig started.
func (r *serveRig) stop() error {
	r.cancel()
	<-r.worked
	r.wt.CloseIdleConnections()
	err := r.srv.Close()
	<-r.served
	if cerr := r.m.Close(); err == nil {
		err = cerr
	}
	return err
}

// client is the benchmark's single client connection.
type client struct {
	url string
	hc  *http.Client
	b   *bench
}

// do sends one request and reads the whole response. It reports whether
// the status was want; the caller counts the operation.
func (c *client) do(method, path string, body []byte, want int) ([]byte, bool, error) {
	req, err := http.NewRequest(method, c.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, false, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, false, err
	}
	return data, resp.StatusCode == want, nil
}

// servedJob is a finished job the client reads back.
type servedJob struct {
	id   string
	spec []byte
	csv  []byte
	pts  int
}

// read issues one cache-hit read and checks its answer: one operation.
func (c *client) read(kind int, j servedJob) error {
	var ok bool
	switch kind {
	case 0: // identical resubmit: 200, deduped onto the finished job
		data, status, err := c.do(http.MethodPost, "/api/jobs", j.spec, http.StatusOK)
		if err != nil {
			return err
		}
		var res serve.SubmitResult
		ok = status && json.Unmarshal(data, &res) == nil && res.Existing && res.Job.Status == sweep.JobDone
	case 1:
		data, status, err := c.do(http.MethodGet, "/api/jobs/"+j.id+"/csv", nil, http.StatusOK)
		if err != nil {
			return err
		}
		ok = status && bytes.Equal(data, j.csv)
	case 2:
		data, status, err := c.do(http.MethodGet, "/api/jobs/"+j.id+"/records", nil, http.StatusOK)
		if err != nil {
			return err
		}
		var res struct {
			Done     bool `json:"done"`
			Returned int  `json:"returned"`
		}
		ok = status && json.Unmarshal(data, &res) == nil && res.Done && res.Returned == j.pts
	}
	c.b.op(ok)
	return nil
}

// serveUnit is what one traced job measured.
type serveUnit struct {
	wall, idle, pointWall, phits float64
	empty, leased, csvBytes      int
	alloc                        uint64
	hops                         callStats
}

// serveSetupReps is how many times a run starts the service; the last one
// serves the jobs. One start takes under a millisecond.
const serveSetupReps = 10

func runServe(b *bench) error {
	st := &httpStats{tr: b.tr, lat: map[string][]float64{}}
	var rig *serveRig
	for i := 0; i < serveSetupReps; i++ {
		if rig != nil {
			if err := rig.stop(); err != nil {
				return err
			}
		}
		dir := filepath.Join(b.work, fmt.Sprintf("store-%d", i))
		err := b.timeSetup(func() (err error) {
			if rig, err = startRig(dir, st); err != nil {
				return err
			}
			resp, err := http.Get(rig.url + "/api/stats")
			if err != nil {
				return err
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("readiness probe: %s", resp.Status)
			}
			return nil
		})
		if err != nil {
			if rig != nil {
				rig.stop()
			}
			return err
		}
	}
	storeDir := filepath.Join(b.work, fmt.Sprintf("store-%d", serveSetupReps-1))
	ct := &http.Transport{}
	defer ct.CloseIdleConnections()
	c := &client{url: rig.url, hc: &http.Client{Transport: &timedTransport{base: ct, st: st}}, b: b}
	err := serveLoop(b, c, rig, st, storeDir)
	if serr := rig.stop(); err == nil {
		err = serr
	}
	return err
}

func serveLoop(b *bench, c *client, rig *serveRig, st *httpStats, storeDir string) error {
	var jobs []servedJob
	var reads []float64 // untraced jobs' read latencies, ms
	tracedReads := 0
	var traced []serveUnit
	var cyclesPerJob, rcPerJob float64 // per job: network cycles, router-cycles
	var packetSize int
	rot := 0
	for b.more() {
		tr := b.tracedUnit()
		j := len(b.units)
		spec := serveSpec(b, j, tr)
		raw, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		if err := spec.Normalize(); err != nil {
			return err
		}
		g, err := spec.Grid()
		if err != nil {
			return err
		}
		pts := len(g.Points())
		topo := topology.New(g.Base.Topology)
		packetSize = g.Base.Router.PacketSize
		routers := int64(topo.NumRouters())
		cycles := spec.Warmup + spec.Measure

		st.on.Store(tr != nil)
		st.mu.Lock()
		empty0, npts0 := st.empty, len(st.points)
		st.mu.Unlock()
		leased0 := rig.m.Store().Stats().PointsLeased
		hops0 := nextHops.totals()
		alloc0 := allocBytes()
		var job servedJob
		var from, to time.Time
		err = b.measure(tr, func() (int64, error) {
			from = time.Now()
			data, ok, err := c.do(http.MethodPost, "/api/jobs", raw, http.StatusCreated)
			if err != nil {
				return 0, err
			}
			b.op(ok)
			var res serve.SubmitResult
			if err := json.Unmarshal(data, &res); err != nil || !ok {
				return 0, fmt.Errorf("submit job %d: %s", j, data)
			}
			job = servedJob{id: res.Job.ID, spec: raw, pts: pts}
			for {
				if len(jobs) > 0 {
					t0 := time.Now()
					if err := c.read(rot%3, jobs[(rot/3)%len(jobs)]); err != nil {
						return 0, err
					}
					if tr == nil {
						reads = append(reads, time.Since(t0).Seconds()*1e3)
					} else {
						tracedReads++
					}
					rot++
				} else {
					time.Sleep(time.Millisecond)
				}
				data, ok, err := c.do(http.MethodGet, "/api/jobs/"+job.id, nil, http.StatusOK)
				if err != nil {
					return 0, err
				}
				b.op(ok)
				var snap sweep.JobSnapshot
				if err := json.Unmarshal(data, &snap); err != nil || !ok {
					return 0, fmt.Errorf("status of job %d: %s", j, data)
				}
				if snap.Status == sweep.JobDone {
					break
				}
				if snap.Failed > 0 || time.Since(from) > serveJobTimeout {
					return 0, fmt.Errorf("job %d did not finish: %+v", j, snap)
				}
			}
			csv, ok, err := c.do(http.MethodGet, "/api/jobs/"+job.id+"/csv", nil, http.StatusOK)
			if err != nil {
				return 0, err
			}
			b.op(ok)
			if !ok {
				return 0, fmt.Errorf("csv of job %d: %s", j, csv)
			}
			job.csv = csv
			b.digest(fmt.Sprintf("job-%d", j), digestBytes(csv), tr)
			to = time.Now()
			return int64(pts) * routers * cycles, nil
		})
		st.on.Store(false)
		if err != nil {
			return err
		}
		jobs = append(jobs, job)
		if tr == nil {
			continue
		}
		su := serveUnit{
			wall:     to.Sub(from).Seconds(),
			leased:   int(rig.m.Store().Stats().PointsLeased - leased0),
			csvBytes: len(job.csv),
			alloc:    allocBytes() - alloc0,
			hops:     nextHops.totals().minus(hops0),
		}
		st.mu.Lock()
		su.empty = st.empty - empty0
		for _, p := range st.points[npts0:] {
			su.pointWall += p.wall
			su.phits += p.thru * float64(topo.NumNodes()) * float64(spec.Measure)
		}
		for _, iv := range st.idle {
			a, z := iv[0], iv[1]
			if a.Before(from) {
				a = from
			}
			if z.After(to) {
				z = to
			}
			if z.After(a) {
				su.idle += z.Sub(a).Seconds()
			}
		}
		st.mu.Unlock()
		traced = append(traced, su)
		cyclesPerJob = float64(int64(pts) * cycles)
		rcPerJob = cyclesPerJob * float64(routers)
	}
	b.note("reads: n=%d untraced (p50 %.3f ms, p99 %.3f ms), n=%d traced",
		len(reads), quantile(reads, 0.5), quantile(reads, 0.99), tracedReads)
	if !b.traced {
		return nil
	}

	// Jobs differ in their seeds, so per-job counts come from the first
	// traced job, which is job 1 in every run.
	u0 := traced[0]
	for _, u := range traced {
		if u.leased != u0.leased {
			return fmt.Errorf("points leased differ between traced jobs")
		}
	}
	lat := func(kind string, q float64) float64 { return quantile(st.lat[kind], q) }
	var points []float64
	for _, p := range st.points {
		points = append(points, p.wall)
	}
	stats := rig.m.Store().Stats()
	fresh := float64(stats.PointsDone - stats.PointsRestored)
	b.layer["routing.nexthop_calls"] = float64(u0.hops.calls)
	b.layer["routing.calls_per_delivered_packet"] = float64(u0.hops.calls) / (u0.phits / float64(packetSize))
	b.layer["routing.ns_per_call"] = medianOf(traced, func(u serveUnit) float64 { return u.hops.nsPerCall() })
	b.layer["routing.self_s"] = medianOf(traced, func(u serveUnit) float64 { return u.hops.selfSeconds() })
	b.layer["sim.engine_self_s"] = medianOf(traced, func(u serveUnit) float64 { return u.pointWall - u.hops.selfSeconds() })
	b.layer["sim.ns_per_router_cycle"] = medianOf(traced, func(u serveUnit) float64 { return u.pointWall * 1e9 / rcPerJob })
	b.layer["sim.ns_per_delivered_phit"] = medianOf(traced, func(u serveUnit) float64 { return u.pointWall * 1e9 / u.phits })
	b.layer["sim.alloc_bytes_per_cycle"] = medianOf(traced, func(u serveUnit) float64 { return float64(u.alloc) / cyclesPerJob })
	b.layer["sweep.point_ms_p50"] = quantile(points, 0.5) * 1e3
	b.layer["sweep.point_ms_p90"] = quantile(points, 0.9) * 1e3
	b.layer["sweep.pool_busy_ratio"] = medianOf(traced, func(u serveUnit) float64 { return u.pointWall / u.wall })
	b.layer["sweep.gap_s"] = medianOf(traced, func(u serveUnit) float64 { return u.wall - u.pointWall })
	b.layer["sweep.checkpoint_bytes"] = dirBytes(storeDir) / float64(len(jobs))
	b.layer["sweep.points_leased"] = float64(u0.leased)
	b.layer["sweep.lease_waste_ratio"] = (float64(stats.PointsLeased) - fresh) / float64(stats.PointsLeased)
	b.layer["report.csv_bytes"] = float64(u0.csvBytes)
	for _, k := range []string{"submit_new", "submit_hit", "csv", "records", "status", "lease", "complete"} {
		b.layer["serve."+k+"_ms_p50"] = lat(k, 0.5)
	}
	for _, k := range []string{"submit_hit", "csv", "records", "status"} {
		b.layer["serve."+k+"_ms_p99"] = lat(k, 0.99)
	}
	b.layer["serve.read_ms_p50"] = quantile(reads, 0.5)
	b.layer["serve.read_ms_p99"] = quantile(reads, 0.99)
	b.layer["serve.lease_empty"] = medianOf(traced, func(u serveUnit) float64 { return float64(u.empty) })
	b.layer["serve.worker_idle_s"] = medianOf(traced, func(u serveUnit) float64 { return u.idle })
	b.layer["serve.idle_share_of_job"] = medianOf(traced, func(u serveUnit) float64 { return u.idle / u.wall })
	b.note("serve request counts (traced): submit_new %d, submit_hit %d, csv %d, records %d, status %d, lease %d, complete %d",
		len(st.lat["submit_new"]), len(st.lat["submit_hit"]), len(st.lat["csv"]), len(st.lat["records"]),
		len(st.lat["status"]), len(st.lat["lease"]), len(st.lat["complete"]))
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) float64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error { //nolint:errcheck // a vanished file only shrinks the sum
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return float64(n)
}

// oracleServe recomputes each job's CSV locally: the same spec's grid run
// on the sweep pool without snapshot reuse, aggregated and rendered by
// report.CurveCSV — no store, no leases, no HTTP.
func oracleServe(b *bench, keys []string) (map[string]string, error) {
	out := map[string]string{}
	for _, k := range keys {
		var j int
		if _, err := fmt.Sscanf(k, "job-%d", &j); err != nil {
			return nil, fmt.Errorf("bad key %q", k)
		}
		spec := serveSpec(b, j, nil)
		if err := spec.Normalize(); err != nil {
			return nil, err
		}
		g, err := spec.Grid()
		if err != nil {
			return nil, err
		}
		g.Snapshots = nil
		g.Workers = 2
		series, err := sweep.Aggregate(g.Run(nil))
		if err != nil {
			return nil, err
		}
		var csv bytes.Buffer
		if err := report.CurveCSV(&csv, series); err != nil {
			return nil, err
		}
		out[k] = digestBytes(csv.Bytes())
	}
	return out, nil
}
