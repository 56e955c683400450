package main

import (
	"fmt"
	"time"

	"dragonfly/internal/router"
	"dragonfly/internal/sim"
	"dragonfly/internal/topology"
	"dragonfly/internal/traffic"
)

// paper_h6_advc: one network of the paper's full size (Balanced(6): 876
// routers, 5,256 nodes) running In-Trns-MM under ADVc at load 0.4 with
// transit-over-injection arbitration — the Figure 4 / Table II unfairness
// point. Saturated and larger than cache: nearly every router steps every
// cycle, so routing, allocation and the parallel barrier do the work.
// A unit builds a fresh network (the set-up sample) and runs it.

func paperConfig(b *bench) sim.Config {
	cfg := sim.PaperConfig()
	cfg.Mechanism = "In-Trns-MM"
	cfg.Pattern = "ADVc"
	cfg.Load = 0.4
	cfg.Router.Arbitration = router.TransitOverInjection
	cfg.Workers = 2
	cfg.Seed = b.seed
	cfg.WarmupCycles, cfg.MeasureCycles = 500, 1000
	if b.small {
		cfg.Topology = topology.Balanced(3)
		cfg.WarmupCycles, cfg.MeasureCycles = 200, 400
	}
	return cfg
}

// paperNetwork builds the unit's network. The pattern is passed explicitly
// (it is the traffic layer's only seam), so every path — untraced, traced
// and the oracle — draws the same random streams.
func paperNetwork(cfg *sim.Config, tr *tracer, dests *callCounter) (*sim.Network, error) {
	topo := topology.New(cfg.Topology)
	var pat traffic.Pattern = traffic.NewADVc(topo)
	if tr != nil {
		pat = countedPattern{Pattern: pat, c: dests, perRouter: cfg.Topology.P}
	}
	return sim.NewNetwork(cfg, pat)
}

// resultDigest covers what a run computes: throughput, latency, per-router
// injections, the latency breakdown and fairness. Wall time and step counts
// are left out.
func resultDigest(res *sim.Result) string {
	var h hasher
	h.add(res.Mechanism, res.Pattern, res.Throughput(), res.AvgLatency(), res.Delivered(), res.Generated())
	h.add(res.Injections())
	h.add(res.Breakdown())
	h.add(res.Fairness())
	return h.sum()
}

// paperUnit is what one traced unit measured.
type paperUnit struct {
	build, run, result time.Duration
	runCPU             float64 // process CPU seconds over RunNetwork
	steps              int64
	phits, delivered   int64
	alloc              uint64
	hops, dests        callStats
}

func runPaper(b *bench) error {
	base := paperConfig(b)
	routers := int64(topology.New(base.Topology).NumRouters())
	cycles := base.WarmupCycles + base.MeasureCycles
	dests := new(callCounter)
	var traced []paperUnit
	for b.more() {
		tr := b.tracedUnit()
		cfg := base
		cfg.Mechanism = mechName(base.Mechanism, tr)
		var pu paperUnit
		var net *sim.Network
		hops0, dests0 := nextHops.totals(), dests.totals()
		err := b.timeSetup(func() (err error) {
			pu.build = tr.call(0, "sim.NewNetwork", func() { net, err = paperNetwork(&cfg, tr, dests) })
			return err
		})
		if err != nil {
			return err
		}
		err = b.measure(tr, func() (int64, error) {
			alloc0, cpu0 := allocBytes(), cpuSeconds()
			var runErr error
			pu.run = tr.call(0, "sim.RunNetwork", func() { runErr = sim.RunNetwork(net, &cfg) })
			pu.runCPU = cpuSeconds() - cpu0
			if runErr != nil {
				return 0, runErr
			}
			pu.alloc = allocBytes() - alloc0
			var res *sim.Result
			pu.result = tr.call(0, "stats.NewResultFrom", func() {
				res = sim.NewResultFrom(net, &cfg, pu.run)
				res.Fairness()
				res.Breakdown()
			})
			b.digest("run", resultDigest(res), tr)
			pu.steps = net.EngineSteps()
			pu.delivered = res.Delivered()
			for _, r := range res.PerRouter {
				pu.phits += r.DeliveredPhits
			}
			return routers * cycles, nil
		})
		if err != nil {
			return err
		}
		if tr != nil {
			pu.hops, pu.dests = nextHops.totals().minus(hops0), dests.totals().minus(dests0)
			traced = append(traced, pu)
		}
	}
	if !b.traced {
		return nil
	}

	// The w=1 replay for the parallel speed-up, untraced.
	cfg := base
	cfg.Workers = 1
	net, err := paperNetwork(&cfg, nil, nil)
	if err != nil {
		return err
	}
	start := time.Now()
	if err := sim.RunNetwork(net, &cfg); err != nil {
		return err
	}
	w1 := time.Since(start)
	b.digest("run", resultDigest(sim.NewResultFrom(net, &cfg, w1)), nil)
	var w2 []float64
	for _, u := range b.units {
		if !u.traced {
			w2 = append(w2, u.wall)
		}
	}
	b.layer["sim.parallel_speedup"] = w1.Seconds() / median(w2)

	u0 := traced[0]
	for _, u := range traced {
		if u.steps != u0.steps || u.hops.calls != u0.hops.calls || u.dests.calls != u0.dests.calls {
			return fmt.Errorf("deterministic counters differ between traced units")
		}
	}
	rc := float64(routers * cycles)
	b.layer["routing.nexthop_calls"] = float64(u0.hops.calls)
	b.layer["routing.calls_per_delivered_packet"] = float64(u0.hops.calls) / float64(u0.delivered)
	b.layer["routing.ns_per_call"] = medianOf(traced, func(u paperUnit) float64 { return u.hops.nsPerCall() })
	b.layer["routing.self_s"] = medianOf(traced, func(u paperUnit) float64 { return u.hops.selfSeconds() })
	b.layer["traffic.dest_calls"] = float64(u0.dests.calls)
	b.layer["traffic.self_s"] = medianOf(traced, func(u paperUnit) float64 { return u.dests.selfSeconds() })
	b.layer["sim.router_steps"] = float64(u0.steps)
	b.layer["sim.step_share"] = float64(u0.steps) / rc
	b.layer["sim.engine_self_s"] = medianOf(traced, func(u paperUnit) float64 {
		// CPU, not wall: with two engine workers the routing and traffic
		// samples sum over both threads.
		return u.runCPU - u.hops.selfSeconds() - u.dests.selfSeconds()
	})
	b.layer["sim.ns_per_router_step"] = medianOf(traced, func(u paperUnit) float64 { return float64(u.run.Nanoseconds()) / float64(u.steps) })
	b.layer["sim.ns_per_router_cycle"] = medianOf(traced, func(u paperUnit) float64 { return float64(u.run.Nanoseconds()) / rc })
	b.layer["sim.ns_per_delivered_phit"] = medianOf(traced, func(u paperUnit) float64 { return float64(u.run.Nanoseconds()) / float64(u.phits) })
	b.layer["sim.alloc_bytes_per_cycle"] = medianOf(traced, func(u paperUnit) float64 { return float64(u.alloc) / float64(cycles) })
	b.layer["sim.build_ms"] = medianOf(traced, func(u paperUnit) float64 { return u.build.Seconds() * 1e3 })
	b.layer["stats.result_ms"] = medianOf(traced, func(u paperUnit) float64 { return u.result.Seconds() * 1e3 })
	return nil
}

// oraclePaper recomputes the run on the dense reference engine, which steps
// every router every cycle and never touches the scheduler or the SoA core.
func oraclePaper(b *bench, keys []string) (map[string]string, error) {
	cfg := paperConfig(b)
	net, err := paperNetwork(&cfg, nil, nil)
	if err != nil {
		return nil, err
	}
	if err := sim.RunNetworkReference(net, &cfg); err != nil {
		return nil, err
	}
	return map[string]string{"run": resultDigest(sim.NewResultFrom(net, &cfg, 0))}, nil
}
