package sim

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"dragonfly/internal/router"
	"dragonfly/internal/stats"
	"dragonfly/internal/topology"
	"dragonfly/internal/traffic"
)

// watchdogInterval is how often the engine checks for global inactivity.
const watchdogInterval = 1024

// Run executes one simulation and returns its measurements. Results are
// bit-identical for any Workers value (the parallel engine only exchanges
// state through link events, routed in a phase of their own after every
// router of the cycle has stepped).
func Run(cfg Config) (*Result, error) {
	return RunWithPattern(cfg, nil)
}

// RunWithPattern is Run with an explicit traffic pattern instance,
// overriding cfg.Pattern (used by the application-allocation examples).
func RunWithPattern(cfg Config, pat traffic.Pattern) (*Result, error) {
	net, err := NewNetwork(&cfg, pat)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := RunNetwork(net, &cfg); err != nil {
		return nil, err
	}
	return newResult(net, &cfg, time.Since(start)), nil
}

// RunWithAppPattern runs a simulation with application-uniform traffic over
// the allocation of `groups` consecutive groups starting at `first`
// (Section III's job-scheduler use case).
func RunWithAppPattern(cfg Config, first, groups int) (*Result, error) {
	topo := topology.New(cfg.Topology)
	return RunWithPattern(cfg, traffic.NewAppUniform(topo, first, groups))
}

// clampWorkers resolves cfg.Workers against the network size and GOMAXPROCS.
func clampWorkers(net *Network, cfg *Config) int {
	workers := cfg.Workers
	if workers == 0 {
		workers = 1
	}
	if workers > len(net.Routers) {
		workers = len(net.Routers)
	}
	// GOMAXPROCS, not NumCPU: workers beyond the Ps the runtime may use
	// (go test -cpu 1, a CPU quota) only add handoffs, and a spinning
	// barrier party would hold a P another party needs.
	if procs := runtime.GOMAXPROCS(0); workers > procs {
		workers = procs
	}
	return workers
}

// RunNetwork drives an already-built network through the configured warm-up
// and measurement phases using the active-router scheduler: quiescent
// routers are skipped and woken by the calendar (see schedule.go). Exposed
// for tools that inspect network state after the run.
func RunNetwork(net *Network, cfg *Config) error {
	return RunNetworkWithController(net, cfg, nil)
}

// RunNetworkWithController is RunNetwork with a reconfiguration Controller
// invoked between cycles (nil: none). Every engine calls the controller at
// the same cycles with the same pre-cycle state, so reconfigured runs stay
// bit-identical across engines and worker counts.
func RunNetworkWithController(net *Network, cfg *Config, ctrl Controller) error {
	total := cfg.WarmupCycles + cfg.MeasureCycles
	if workers := clampWorkers(net, cfg); workers > 1 {
		return runParallel(net, cfg.WarmupCycles, total, workers, ctrl)
	}
	return runSequential(net, cfg.WarmupCycles, total, ctrl)
}

// RunNetworkReference drives the network with the dense reference engine
// that steps every router every cycle, sequentially. It is the baseline
// the scheduler is proven bit-identical against (see the cross-engine
// equivalence tests) and the "before" side of the cmd/dfbench regression
// harness. cfg.Workers is ignored: results are worker-invariant, so the
// oracle has a single, sequential form.
func RunNetworkReference(net *Network, cfg *Config) error {
	return RunNetworkReferenceWithController(net, cfg, nil)
}

// RunNetworkReferenceWithController is RunNetworkReference with a
// reconfiguration Controller invoked between cycles (nil: none).
// cfg.Workers is ignored, as for RunNetworkReference.
func RunNetworkReferenceWithController(net *Network, cfg *Config, ctrl Controller) error {
	return runSequentialRef(net, cfg.WarmupCycles, cfg.WarmupCycles+cfg.MeasureCycles, ctrl)
}

// batchIndex maps a measurement cycle to its batch-means span.
func batchIndex(now, warmup, measure int64) int {
	if measure <= 0 {
		return 0
	}
	return int((now - warmup) * stats.Batches / measure)
}

// setPhase applies the warm-up→measurement transition and batch-means
// bookkeeping for cycle now. It touches every router (sleeping ones
// included — the flags must be current whenever a router next steps), but
// only on the handful of boundary cycles.
func setPhase(net *Network, now, warmup, measure int64, batch *int) {
	if now == warmup {
		for _, r := range net.Routers {
			r.SetMeasuring(true)
		}
		if net.coreLive {
			net.core.SetMeasuring(true)
		}
	}
	if now >= warmup {
		if b := batchIndex(now, warmup, measure); b != *batch {
			*batch = b
			for _, r := range net.Routers {
				r.SetBatch(b)
			}
			if net.coreLive {
				net.core.SetBatch(b)
			}
		}
	}
}

// seqRun is one sequential scheduler-engine run in progress. The per-cycle
// body lives in cycle() so the steady-state allocation gate (alloc_test.go)
// can drive — and meter — single cycles of exactly the production loop.
type seqRun struct {
	net      *Network
	sched    *scheduler
	reconf   *reconfigRun
	probes   *probeRun
	core     *router.Core
	wbuf     []router.LinkEvent
	pbDirty  []bool
	warmup   int64
	measure  int64
	batch    int
	lastSeen int64 // most recent activity observed by the watchdog
}

func newSeqRun(net *Network, warmup, total int64, ctrl Controller) *seqRun {
	s := &seqRun{
		net:     net,
		sched:   newScheduler(len(net.Routers)),
		reconf:  newReconfigRun(net, ctrl),
		probes:  newProbeRun(net, warmup),
		core:    net.beginCore(),
		warmup:  warmup,
		measure: total - warmup,
		batch:   -1,
	}
	sink := func(ev router.LinkEvent) {
		// Route the event to the destination router immediately (its pop
		// stages read the ring no earlier than the arrival cycle) and
		// remember it for the post-settle wake pass.
		s.core.PushDue(ev.Router, ev)
		s.wbuf = append(s.wbuf, ev)
	}
	s.core.SetAllSinks(sink)
	net.engineSteps = 0
	// Scheduler-aware PiggyBack refresh: a group's PB bits depend only on
	// its own routers' link loads, which change only when one of those
	// routers steps — so only groups dirtied by the previous cycle's step
	// list need a refresh (all groups start dirty).
	if net.pb != nil {
		s.pbDirty = make([]bool, net.Topo.NumGroups())
		for g := range s.pbDirty {
			s.pbDirty[g] = true
		}
	}
	return s
}

// finish tears the run down and publishes the step count.
func (s *seqRun) finish() {
	s.net.engineSteps = s.sched.steps
	s.core.SetAllSinks(nil)
	s.net.endCore()
	s.probes.finish()
}

// cycle advances the simulation by one cycle.
func (s *seqRun) cycle(now int64) error {
	net, sched, core := s.net, s.sched, s.core
	// Reconfiguration first: membership changes must be visible to this
	// cycle's generation, and a force-woken router at worst executes a
	// provable no-op step.
	s.reconf.step(now, func(r int) { sched.active[r] = true })
	s.probes.step(now)
	setPhase(net, now, s.warmup, s.measure, &s.batch)
	if net.pb != nil {
		for g, d := range s.pbDirty {
			if d {
				net.pb.updateGroup(g)
				s.pbDirty[g] = false
			}
		}
	}
	sched.wakeDue(now)
	sched.rebuild()
	for _, r := range sched.list {
		net.generate(r, now)
		nev := core.StepRouter(r, now)
		sched.settle(net, r, now, nev)
	}
	sched.steps += int64(len(sched.list))
	if net.pb != nil {
		for _, r := range sched.list {
			s.pbDirty[net.groupOf[r]] = true
		}
	}
	// Events created this cycle towards already-sleeping routers
	// advance their wake-ups (settle saw everything earlier).
	for _, e := range s.wbuf {
		sched.notify(e.Router, e.At)
	}
	s.wbuf = s.wbuf[:0]
	if now%watchdogInterval == watchdogInterval-1 {
		var err error
		s.lastSeen, err = watchdog(net, now, s.lastSeen)
		if err != nil {
			return err
		}
	}
	return nil
}

func runSequential(net *Network, warmup, total int64, ctrl Controller) error {
	s := newSeqRun(net, warmup, total, ctrl)
	defer s.finish()
	fin, _ := ctrl.(Finisher)
	net.stoppedAt = 0
	ran := total
	for now := int64(0); now < total; now++ {
		if err := s.cycle(now); err != nil {
			return err
		}
		if fin != nil && fin.Finished(now) {
			ran = now + 1
			net.stoppedAt = ran
			break
		}
	}
	net.ranCycles += ran
	return nil
}

// WarmupNetwork drives the network through exactly `cycles` warm-up cycles
// without ever enabling measurement: the engines enable measuring at
// now == warmup, which a warmup == total run never reaches. Used to
// prepare warm-state snapshots (see Network.Snapshot).
func WarmupNetwork(net *Network, cfg *Config, cycles int64) error {
	if cycles <= 0 {
		return nil
	}
	if workers := clampWorkers(net, cfg); workers > 1 {
		return runParallel(net, cycles, cycles, workers, nil)
	}
	return runSequential(net, cycles, cycles, nil)
}

// watchdog detects a fully stalled network: packets in flight but no router
// granted or delivered anything for several intervals. It inspects every
// router directly, so detection is independent of the scheduler — a
// network that deadlocks and goes fully quiescent is still caught.
func watchdog(net *Network, now, lastSeen int64) (int64, error) {
	latest := int64(-1)
	for _, r := range net.Routers {
		if a := r.Stats().LastActivity; a > latest {
			latest = a
		}
	}
	if latest > lastSeen {
		return latest, nil
	}
	// The stall horizon is widened by the longest wired link: with
	// per-link runtime latencies a healthy network may legitimately show
	// no router activity for a full time of flight (every packet airborne
	// on long cables), which the fixed 2-interval window of the seed
	// would misread as a deadlock.
	if net.InFlight() > 0 && now-latest > 2*watchdogInterval+net.maxLinkLat {
		return latest, fmt.Errorf("sim: no progress since cycle %d (now %d) with packets in flight: routing deadlock", latest, now)
	}
	return lastSeen, nil
}

// runParallel steps disjoint router shards with a barrier per phase, each
// worker visiting only the active routers of its shard. The coordinator is
// worker 0: it steps shard 0 itself and runs the serial work between
// cycles while the other workers wait at the barrier. Each cycle has up to
// three parallel phases:
//
//  1. PB refresh (PiggyBack mechanisms only): every worker refreshes the
//     dirty groups of its group shard.
//  2. Step: every worker generates for and steps its active routers; the
//     link events they emit go to the worker's own sender buffer.
//  3. Route: every worker takes its routers' sleep decisions, then reads
//     every sender buffer and routes the events whose receiver is in its
//     shard into the receiver's rings (Core.PushDue).
//
// All scheduler mutation (wake draining, sleeps, calendar pushes) stays on
// the coordinator, between cycles. Routing is race-free because every ring,
// pending mask and cached external horizon belongs to one receiving router,
// written only by the worker whose shard holds it. Results stay identical
// to the sequential engine for any partition: each ring has one sender,
// whose events sit in one buffer in emission order, so every ring receives
// the same event sequence whichever worker routes it; and the sleep
// decisions are taken before any of the cycle's events are routed, as
// they are when routing is serial.
//
// Shards are re-partitioned by recent router activity every
// rebalanceInterval cycles (see partition.go): under adversarial patterns
// the active routers cluster, and a static id split would leave most
// workers idle while one steps the hot group. Re-partitioning happens on
// the coordinator between cycles and keeps spans contiguous and ascending,
// so results stay bit-identical to the sequential engine for any worker
// count.
func runParallel(net *Network, warmup, total int64, workers int, ctrl Controller) error {
	n := len(net.Routers)
	reconf := newReconfigRun(net, ctrl)
	probes := newProbeRun(net, warmup)
	defer probes.finish()
	core := net.beginCore()
	weight := make([]int64, n) // router-steps, halved at each re-partition
	shards := balancedSpans(weight, workers, make([]span, 0, workers))
	spare := make([]span, 0, workers) // second buffer; swaps with shards
	groups := net.Topo.NumGroups()
	gShards := make([]span, workers)
	for w := 0; w < workers; w++ {
		gShards[w] = span{lo: w * groups / workers, hi: (w + 1) * groups / workers}
	}

	sched := newScheduler(n)
	lists := make([][]int, workers) // per-shard active routers this cycle
	for w := range lists {
		lists[w] = make([]int, 0, shards[w].hi-shards[w].lo)
	}
	// Workers may not touch the shared calendar, so each router's event
	// sink appends to its shard's buffer, and each stepped router's next
	// wake-up goes into wakeAt (StepRouter's internal horizon after the
	// step phase, the sleep decision after the route phase); the
	// coordinator applies both between cycles. Sinks follow the shard map:
	// assignSinks reruns after every re-partition, between cycles, so each
	// buffer keeps a single writer per phase.
	wbuf := make([][]router.LinkEvent, workers)
	wakeAt := make([]int64, n)
	sinkFns := make([]func(router.LinkEvent), workers)
	for w := 0; w < workers; w++ {
		buf := &wbuf[w]
		sinkFns[w] = func(ev router.LinkEvent) {
			*buf = append(*buf, ev)
		}
	}
	assignSinks := func() {
		for w := 0; w < workers; w++ {
			for r := shards[w].lo; r < shards[w].hi; r++ {
				core.SetSink(r, sinkFns[w])
			}
		}
	}
	assignSinks()
	defer func() {
		core.SetAllSinks(nil)
		net.endCore()
	}()
	net.engineSteps = 0

	// Scheduler-aware PiggyBack refresh (see runSequential): the
	// coordinator marks the groups of stepped routers dirty between
	// cycles; each worker refreshes — and clears — only the dirty groups
	// of its own group shard, so every flag keeps a single writer per phase.
	var pbDirty []bool
	if net.pb != nil {
		pbDirty = make([]bool, groups)
		for g := range pbDirty {
			pbDirty[g] = true
		}
	}

	// now is written by the coordinator between cycles and read by the
	// workers after the cycle-start barrier.
	var now int64
	bar := newBarrier(workers)
	// phases runs worker w's part of one cycle, from the cycle-start
	// barrier to the end of the route phase; false once the barrier is
	// closed.
	phases := func(w int) bool {
		if !bar.wait(w) {
			return false
		}
		if net.pb != nil { // PB refresh
			for g := gShards[w].lo; g < gShards[w].hi; g++ {
				if pbDirty[g] {
					net.pb.updateGroup(g)
					pbDirty[g] = false
				}
			}
			if !bar.wait(w) {
				return false
			}
		}
		for _, r := range lists[w] { // step
			net.generate(r, now)
			wakeAt[r] = core.StepRouter(r, now)
		}
		if !bar.wait(w) {
			return false
		}
		// Route: sleep decisions first, against rings that hold none of
		// this cycle's events yet.
		for _, r := range lists[w] {
			wakeAt[r] = nextWake(net, r, now, wakeAt[r])
		}
		lo, hi := shards[w].lo, shards[w].hi
		for _, buf := range wbuf {
			for _, e := range buf {
				if e.Router >= lo && e.Router < hi {
					core.PushDue(e.Router, e)
				}
			}
		}
		return bar.wait(w)
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for phases(w) {
			}
		}(w)
	}
	defer func() {
		bar.close()
		wg.Wait()
	}()

	fin, _ := ctrl.(Finisher)
	net.stoppedAt = 0
	ran := total
	var lastSeen int64
	measure := total - warmup
	batch := -1
	for now = 0; now < total; now++ {
		// Workers are parked at the cycle-start barrier, so the
		// coordinator may touch router and scheduler state here —
		// including the reconfiguration controller, which must run before
		// this cycle's active lists are built so force-woken routers are
		// stepped.
		reconf.step(now, func(r int) { sched.active[r] = true })
		probes.step(now)
		if now > 0 && now%rebalanceInterval == 0 {
			if fresh := balancedSpans(weight, workers, spare); !spansEqual(fresh, shards) {
				shards, spare = fresh, shards[:0]
				assignSinks()
			} else {
				spare = fresh[:0]
			}
			// Halve rather than reset: load shifts are tracked with a
			// little hysteresis instead of re-cutting on one quiet window.
			for r := range weight {
				weight[r] >>= 1
			}
		}
		setPhase(net, now, warmup, measure, &batch)
		sched.wakeDue(now)
		next := 0
		for w := 0; w < workers; w++ {
			lists[w] = lists[w][:0]
		}
		for r, a := range sched.active {
			if !a {
				continue
			}
			for r >= shards[next].hi {
				next++
			}
			lists[next] = append(lists[next], r)
		}
		phases(0)
		// The rings are fully routed; apply the sleep decisions, then let
		// this cycle's events advance the wake-ups of routers already
		// asleep, in ascending sender order as the sequential engine does.
		for w := 0; w < workers; w++ {
			for _, r := range lists[w] {
				if wake := wakeAt[r]; wake != now+1 {
					sched.sleep(r, wake)
				}
				weight[r]++
				if pbDirty != nil {
					pbDirty[net.groupOf[r]] = true
				}
			}
			sched.steps += int64(len(lists[w]))
		}
		for w := 0; w < workers; w++ {
			for _, e := range wbuf[w] {
				sched.notify(e.Router, e.At)
			}
			wbuf[w] = wbuf[w][:0]
		}
		if now%watchdogInterval == watchdogInterval-1 {
			var err error
			lastSeen, err = watchdog(net, now, lastSeen)
			if err != nil {
				return err
			}
		}
		if fin != nil && fin.Finished(now) {
			ran = now + 1
			net.stoppedAt = ran
			break
		}
	}
	net.engineSteps = sched.steps
	net.ranCycles += ran
	return nil
}

// runSequentialRef is the dense seed engine: every router is generated for
// and stepped every cycle. Kept as the executable specification the
// scheduler engines are verified against.
func runSequentialRef(net *Network, warmup, total int64, ctrl Controller) error {
	reconf := newReconfigRun(net, ctrl)
	probes := newProbeRun(net, warmup)
	defer probes.finish()
	fin, _ := ctrl.(Finisher)
	net.stoppedAt = 0
	ran := total
	measure := total - warmup
	var lastSeen int64
	batch := -1
	for now := int64(0); now < total; now++ {
		reconf.step(now, nil)
		probes.step(now)
		setPhase(net, now, warmup, measure, &batch)
		if net.pb != nil {
			for g := 0; g < net.Topo.NumGroups(); g++ {
				net.pb.updateGroup(g)
			}
		}
		for r := range net.Routers {
			net.generate(r, now)
			net.Routers[r].Step(now)
		}
		if now%watchdogInterval == watchdogInterval-1 {
			var err error
			lastSeen, err = watchdog(net, now, lastSeen)
			if err != nil {
				return err
			}
		}
		if fin != nil && fin.Finished(now) {
			ran = now + 1
			net.stoppedAt = ran
			break
		}
	}
	net.engineSteps = int64(len(net.Routers)) * ran
	net.ranCycles += ran
	return nil
}
