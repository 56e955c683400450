package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"dragonfly/internal/experiments"
	"dragonfly/internal/report"
	"dragonfly/internal/sim"
	"dragonfly/internal/sweep"
	"dragonfly/internal/topology"
)

// figures_h3: the Figure 2/3/5 + Table II pipeline at h=3 (114 routers)
// for MIN, Obl-RRG, Src-RRG and In-Trns-MM over loads 0.1–0.5, with
// construction reuse, a fresh checkpoint and a pool of width 2. Many
// mid-size points, half at low load: active-router skipping, snapshot
// restore, per-point import/write-back, checkpoint writes and result
// reduction matter, and the working set fits in cache. A unit builds the
// pipeline and opens its checkpoint (the set-up sample), then runs it.

// figureTasks are the pipeline tasks the workload keeps: Figures 2, 3
// (rendered from fig2c's records) and 5, and Figure 4 / Table II.
var figureTasks = map[string]bool{
	"fig2a": true, "fig2b": true, "fig2c": true, "fig3": true,
	"fig4": true, "fig5a": true, "fig5b": true, "fig5c": true,
}

func figuresPipeline(b *bench, reuse sweep.ReuseMode, workers int, tr *tracer) *experiments.Pipeline {
	base := sim.DefaultConfig()
	base.Topology = topology.Balanced(3)
	base.WarmupCycles, base.MeasureCycles = 300, 600
	loads := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	if b.small {
		base.Topology = topology.Balanced(2)
		base.WarmupCycles, base.MeasureCycles = 100, 200
		loads = []float64{0.1, 0.4}
	}
	p := experiments.Build(base, experiments.Options{
		Loads:      loads,
		Seeds:      []uint64{b.seed},
		FairLoad:   0.4,
		Mechanisms: []string{"MIN", "Obl-RRG", "Src-RRG", "In-Trns-MM"},
		Workers:    workers,
		Reuse:      reuse,
	})
	kept := p.Tasks[:0]
	for _, t := range p.Tasks {
		if figureTasks[t.Name] {
			// Build decided the task structure on the plain names; only
			// the grids switch to the counting twins.
			t.Grid.Mechanisms = mechNames(t.Grid.Mechanisms, tr)
			kept = append(kept, t)
		}
	}
	p.Tasks = kept
	return p
}

// figuresDigest covers every task's seed-averaged series: throughput,
// latency, breakdown, fairness and injections, keyed by display names.
func figuresDigest(results []experiments.TaskResult) string {
	var h hasher
	for _, r := range results {
		h.add(r.Task.Name, r.Err)
		for _, s := range r.Series {
			h.add(s.Mechanism, s.Pattern, s.Load, s.Throughput, s.AvgLatency, s.Seeds)
			h.add(s.Breakdown, s.Fairness, s.Injections)
		}
	}
	return h.sum()
}

// figuresUnit is what one traced unit measured.
type figuresUnit struct {
	build, wall         time.Duration
	pointWall, gap      float64
	points              []float64 // fresh point walls, seconds
	phits               float64
	ckptBytes, csvBytes int64
	alloc               uint64
	hops                callStats
}

// figuresSetupReps is how many times a unit builds its pipeline and opens
// its checkpoint: one set-up takes well under a millisecond.
const figuresSetupReps = 10

func runFigures(b *bench) error {
	var traced []figuresUnit
	var routers, cycles int64
	for b.more() {
		tr := b.tracedUnit()
		var p *experiments.Pipeline
		var ck *sweep.Checkpoint
		var fu figuresUnit
		path := filepath.Join(b.work, fmt.Sprintf("ckpt-%d.jsonl", len(b.units)))
		for r := 0; r < figuresSetupReps; r++ {
			if ck != nil {
				if err := ck.Close(); err != nil {
					return err
				}
				os.Remove(path)
			}
			err := b.timeSetup(func() (err error) {
				fu.build = tr.call(0, "experiments.Build", func() { p = figuresPipeline(b, sweep.ReuseConstruct, 2, tr) })
				tr.call(0, "sweep.OpenCheckpoint", func() { ck, err = sweep.OpenCheckpoint(path, p.Fingerprint()) })
				return err
			})
			if err != nil {
				return err
			}
		}
		base := p.Tasks[0].Grid.Base
		routers = int64(topology.New(base.Topology).NumRouters())
		cycles = base.WarmupCycles + base.MeasureCycles
		nodes := float64(topology.New(base.Topology).NumNodes())
		hops0 := nextHops.totals()
		runID := tr.id()
		var mu sync.Mutex
		var spans [][2]time.Time
		progress := func(pr experiments.Progress) {
			rec := pr.Record
			end := time.Now()
			mu.Lock()
			defer mu.Unlock()
			b.op(rec.Err == "") // progress runs on the pool's goroutines
			if tr == nil {
				return
			}
			start := end.Add(-time.Duration(rec.WallSeconds * float64(time.Second)))
			tr.add(tr.id(), runID, "sweep.point", start, end)
			spans = append(spans, [2]time.Time{start, end})
			fu.points = append(fu.points, rec.WallSeconds)
			fu.pointWall += rec.WallSeconds
			fu.phits += rec.Throughput * nodes * float64(base.MeasureCycles)
		}
		err := b.measure(tr, func() (int64, error) {
			alloc0 := allocBytes()
			start := time.Now()
			results, err := p.Run(context.Background(), ck, progress)
			end := time.Now()
			tr.add(runID, 0, "experiments.Run", start, end)
			if cerr := ck.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return 0, err
			}
			b.digest("grid", figuresDigest(results), tr)
			fu.alloc = allocBytes() - alloc0
			if tr != nil {
				fu.wall = end.Sub(start)
				fu.gap = fu.wall.Seconds() - covered(spans, start, end)
				var csv bytes.Buffer
				for _, r := range results {
					if r.Task.Kind == experiments.Curves {
						if err := report.CurveCSV(&csv, r.Series); err != nil {
							return 0, err
						}
					}
				}
				fu.csvBytes = int64(csv.Len())
			}
			return int64(p.TotalPoints()) * routers * cycles, nil
		})
		if err != nil {
			return err
		}
		if tr != nil {
			if st, err := os.Stat(path); err == nil {
				fu.ckptBytes = st.Size()
			}
			fu.hops = nextHops.totals().minus(hops0)
			traced = append(traced, fu)
		}
		os.Remove(path)
	}
	if !b.traced {
		return nil
	}

	u0 := traced[0]
	for _, u := range traced {
		if u.hops.calls != u0.hops.calls {
			return fmt.Errorf("deterministic counters differ between traced units")
		}
	}
	var points []float64
	for _, u := range traced {
		points = append(points, u.points...)
	}
	rc := float64(int64(len(u0.points)) * routers * cycles)
	packets := u0.phits / float64(sim.DefaultConfig().Router.PacketSize)
	b.layer["routing.nexthop_calls"] = float64(u0.hops.calls)
	b.layer["routing.calls_per_delivered_packet"] = float64(u0.hops.calls) / packets
	b.layer["routing.ns_per_call"] = medianOf(traced, func(u figuresUnit) float64 { return u.hops.nsPerCall() })
	b.layer["routing.self_s"] = medianOf(traced, func(u figuresUnit) float64 { return u.hops.selfSeconds() })
	b.layer["sim.engine_self_s"] = medianOf(traced, func(u figuresUnit) float64 { return u.pointWall - u.hops.selfSeconds() })
	b.layer["sim.ns_per_router_cycle"] = medianOf(traced, func(u figuresUnit) float64 { return u.pointWall * 1e9 / rc })
	b.layer["sim.ns_per_delivered_phit"] = medianOf(traced, func(u figuresUnit) float64 { return u.pointWall * 1e9 / u.phits })
	b.layer["sim.alloc_bytes_per_cycle"] = medianOf(traced, func(u figuresUnit) float64 {
		return float64(u.alloc) / float64(int64(len(u.points))*cycles)
	})
	b.layer["experiments.build_ms"] = medianOf(traced, func(u figuresUnit) float64 { return u.build.Seconds() * 1e3 })
	b.layer["sweep.point_ms_p50"] = quantile(points, 0.5) * 1e3
	b.layer["sweep.point_ms_p90"] = quantile(points, 0.9) * 1e3
	b.layer["sweep.pool_busy_ratio"] = medianOf(traced, func(u figuresUnit) float64 { return u.pointWall / (u.wall.Seconds() * 2) })
	b.layer["sweep.gap_s"] = medianOf(traced, func(u figuresUnit) float64 { return u.gap })
	b.layer["sweep.checkpoint_bytes"] = float64(u0.ckptBytes)
	b.layer["report.csv_bytes"] = float64(u0.csvBytes)
	return nil
}

// covered returns the seconds of [start, end] during which at least one of
// the intervals was open — the time a unit spent simulating.
func covered(spans [][2]time.Time, start, end time.Time) float64 {
	sorted := append([][2]time.Time(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i][0].Before(sorted[j][0]) })
	var total time.Duration
	cur := start
	for _, s := range sorted {
		a, z := s[0], s[1]
		if a.Before(cur) {
			a = cur
		}
		if z.After(end) {
			z = end
		}
		if z.After(a) {
			total += z.Sub(a)
			cur = z
		}
	}
	return total.Seconds()
}

// oracleFigures reruns the grid serially with snapshot reuse off and no
// checkpoint: every point a cold build on one worker.
func oracleFigures(b *bench, keys []string) (map[string]string, error) {
	p := figuresPipeline(b, sweep.ReuseOff, 1, nil)
	results, err := p.Run(context.Background(), nil, nil)
	if err != nil {
		return nil, err
	}
	return map[string]string{"grid": figuresDigest(results)}, nil
}
