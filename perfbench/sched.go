package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"dragonfly/internal/scheduler"
	"dragonfly/internal/sim"
	"dragonfly/internal/topology"
)

// sched_lifetime: Poisson × lognormal job traces at h=3 scheduled under
// EASY backfill for a fixed 32,000-cycle window, each on one simulation
// with one engine worker. It is the only workload that drives the
// scheduler, the dynamic workload layer and the engines' Controller/Reconfig
// seam. A unit is a two-replica study: it generates two traces (the set-up
// sample) and runs them side by side, as a dfsched study runs replicas on
// the pool. Two replicas keep both cores busy: with one core busy and one
// idle, the unit times spread 13–28% from run to run on a 2-core container.

// schedReplicas is the number of traces a unit runs side by side.
const schedReplicas = 2

// schedSeed is replica r's trace and simulation seed.
func schedSeed(b *bench, r int) uint64 { return b.seed*schedReplicas + uint64(r) }

func schedInputs(b *bench) (sim.Config, scheduler.GenSpec) {
	cfg := sim.DefaultConfig()
	cfg.Topology = topology.Balanced(3)
	cfg.Mechanism = "In-Trns-MM"
	cfg.Load = 0.3
	cfg.Workers = 1
	// Every replica simulates the same fixed window of the cluster's life,
	// which ends before the trace drains: the work per unit then does not
	// depend on the seed, and the two replicas finish together.
	cfg.WarmupCycles, cfg.MeasureCycles = 0, 32000
	spec := scheduler.GenSpec{
		Jobs:         3000,
		InterArrival: 14,
		NodesMedian:  8,
		NodesSigma:   0.7,
		MaxNodes:     topology.New(cfg.Topology).NumNodes(),
		DurMedian:    300,
		DurSigma:     0.7,
	}
	if b.small {
		cfg.Topology = topology.Balanced(2)
		spec.Jobs, spec.MaxNodes = 100, topology.New(cfg.Topology).NumNodes()
	}
	return cfg, spec
}

// schedDigest covers every replica's StreamSummary: scheduling outcomes,
// their serialized quantile sketches and the network-side throughput and
// latency.
func schedDigest(b *bench, res []*scheduler.StreamResult) (string, error) {
	var h hasher
	for r, sr := range res {
		sum, err := sr.Summary("consecutive", schedSeed(b, r))
		if err != nil {
			return "", err
		}
		h.add(sum)
	}
	return h.sum(), nil
}

// runReplicas runs one trace per replica side by side.
func runReplicas(cfg sim.Config, traces []*scheduler.GenTrace, b *bench) ([]*scheduler.StreamResult, error) {
	res := make([]*scheduler.StreamResult, len(traces))
	errs := make([]error, len(traces))
	var wg sync.WaitGroup
	for r, gt := range traces {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := cfg
			c.Seed = schedSeed(b, r)
			res[r], errs[r] = scheduler.RunGenerated(c, gt, scheduler.DisciplineEASY)
		}()
	}
	wg.Wait()
	return res, errors.Join(errs...)
}

// schedUnit is what one traced unit measured.
type schedUnit struct {
	generate, run time.Duration
	res           []*scheduler.StreamResult
	alloc         uint64
	hops          callStats
}

// total sums a per-replica quantity.
func (u schedUnit) total(f func(*scheduler.StreamResult) int64) int64 {
	var n int64
	for _, r := range u.res {
		n += f(r)
	}
	return n
}

// schedSetupReps is how many times a unit generates its traces: generation
// takes about a millisecond, so one sample per unit would be mostly noise.
const schedSetupReps = 10

func runSched(b *bench) error {
	base, spec := schedInputs(b)
	routers := int64(topology.New(base.Topology).NumRouters())
	var traced []schedUnit
	for b.more() {
		tr := b.tracedUnit()
		cfg := base
		cfg.Mechanism = mechName(base.Mechanism, tr)
		var su schedUnit
		traces := make([]*scheduler.GenTrace, schedReplicas)
		for i := 0; i < schedSetupReps; i++ {
			err := b.timeSetup(func() (err error) {
				su.generate = tr.call(0, "scheduler.Generate", func() {
					for r := range traces {
						if traces[r], err = scheduler.Generate(spec, schedSeed(b, r)); err != nil {
							return
						}
					}
				})
				return err
			})
			if err != nil {
				return err
			}
		}
		hops0 := nextHops.totals()
		err := b.measure(tr, func() (int64, error) {
			alloc0 := allocBytes()
			var err error
			su.run = tr.call(0, "scheduler.RunGenerated", func() { su.res, err = runReplicas(cfg, traces, b) })
			for range traces {
				b.op(err == nil)
			}
			if err != nil {
				return 0, err
			}
			su.alloc = allocBytes() - alloc0
			d, err := schedDigest(b, su.res)
			if err != nil {
				return 0, err
			}
			b.digest("summary", d, tr)
			return routers * su.total(ranCycles), nil
		})
		if err != nil {
			return err
		}
		if tr != nil {
			su.hops = nextHops.totals().minus(hops0)
			traced = append(traced, su)
		}
	}
	if !b.traced {
		return nil
	}

	u0 := traced[0]
	ran := u0.total(ranCycles)
	for _, u := range traced {
		if u.hops.calls != u0.hops.calls || u.total(ranCycles) != ran {
			return fmt.Errorf("deterministic counters differ between traced units")
		}
	}
	// Engine time is summed over the replicas' threads: each replica ran
	// for about the unit's wall time on its own core.
	engine := func(u schedUnit) float64 { return u.run.Seconds() * schedReplicas }
	rc := float64(routers * ran)
	phits := u0.total(func(r *scheduler.StreamResult) int64 {
		var n int64
		for _, s := range r.Sim.PerRouter {
			n += s.DeliveredPhits
		}
		return n
	})
	delivered := u0.total(func(r *scheduler.StreamResult) int64 { return r.Sim.Delivered() })
	b.layer["routing.nexthop_calls"] = float64(u0.hops.calls)
	b.layer["routing.calls_per_delivered_packet"] = float64(u0.hops.calls) / float64(delivered)
	b.layer["routing.ns_per_call"] = medianOf(traced, func(u schedUnit) float64 { return u.hops.nsPerCall() })
	b.layer["routing.self_s"] = medianOf(traced, func(u schedUnit) float64 { return u.hops.selfSeconds() })
	b.layer["sim.engine_self_s"] = medianOf(traced, func(u schedUnit) float64 { return engine(u) - u.hops.selfSeconds() })
	b.layer["sim.ns_per_router_cycle"] = medianOf(traced, func(u schedUnit) float64 { return engine(u) * 1e9 / rc })
	b.layer["sim.ns_per_delivered_phit"] = medianOf(traced, func(u schedUnit) float64 { return engine(u) * 1e9 / float64(phits) })
	b.layer["sim.alloc_bytes_per_cycle"] = medianOf(traced, func(u schedUnit) float64 { return float64(u.alloc) / float64(ran) })
	b.layer["scheduler.generate_ms"] = medianOf(traced, func(u schedUnit) float64 { return u.generate.Seconds() * 1e3 })
	b.layer["scheduler.jobs_completed"] = float64(u0.total(func(r *scheduler.StreamResult) int64 { return int64(r.Completed) }))
	b.layer["scheduler.ran_cycles"] = float64(ran)
	b.layer["scheduler.peak_queue"] = float64(u0.total(func(r *scheduler.StreamResult) int64 { return int64(r.PeakQueue) }))
	return nil
}

func ranCycles(r *scheduler.StreamResult) int64 { return r.RanCycles }

// oracleSched reruns the replicas one after the other, each with two
// engine workers: the parallel engine, whose results are proven
// bit-identical to the sequential one.
func oracleSched(b *bench, keys []string) (map[string]string, error) {
	cfg, spec := schedInputs(b)
	cfg.Workers = 2
	res := make([]*scheduler.StreamResult, schedReplicas)
	for r := range res {
		gt, err := scheduler.Generate(spec, schedSeed(b, r))
		if err != nil {
			return nil, err
		}
		c := cfg
		c.Seed = schedSeed(b, r)
		if res[r], err = scheduler.RunGenerated(c, gt, scheduler.DisciplineEASY); err != nil {
			return nil, err
		}
	}
	d, err := schedDigest(b, res)
	if err != nil {
		return nil, err
	}
	return map[string]string{"summary": d}, nil
}
