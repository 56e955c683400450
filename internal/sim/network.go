package sim

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"dragonfly/internal/packet"
	"dragonfly/internal/rng"
	"dragonfly/internal/router"
	"dragonfly/internal/routing"
	"dragonfly/internal/telemetry"
	"dragonfly/internal/topology"
	"dragonfly/internal/traffic"
)

// nodeState is the per-node traffic source.
type nodeState struct {
	rnd          *rng.Source
	nextGen      int64
	seq          uint64
	q            float64 // generation probability per cycle (per-node for workloads)
	logOneMinusQ float64 // cached for geometric inter-arrival sampling
	active       bool
}

// Network is a fully wired simulator instance.
type Network struct {
	Topo    *topology.Topology
	Routers []*router.Router
	Links   []*router.EventLink

	cfg     *Config
	mech    routing.Mechanism
	env     routing.Env
	pattern traffic.Pattern
	timed   traffic.Timed // non-nil when pattern draws depend on the cycle
	jobs    traffic.JobMapper
	pb      *pbState
	nodes   []nodeState
	pool    sync.Pool
	genProb float64 // packet generation probability per node per cycle

	// nodeJob is the live node→job map shared read-only with every router
	// (nil without job attribution). Packets are stamped with it at
	// generation; a Controller may rewrite entries between cycles through
	// Reconfig.SetNodeJob when jobs arrive, depart, or nodes are recycled.
	nodeJob []int32

	// latency is the resolved per-link latency model; uniform caches the
	// constant-latency fast path so the per-packet minimal-path pricing in
	// generate stays two multiplies for the common case.
	latency topology.LatencyModel
	uniform *topology.UniformLatency // non-nil when latency is uniform

	// maxLinkLat is the largest link latency wired into the network. The
	// watchdog widens its no-progress horizon by it: with long cables a
	// healthy network may show no router activity for a full flight time.
	maxLinkLat int64

	// genWake caches, per router, the earliest future arrival among its
	// nodes' generation processes (-1: none). generate keeps it current;
	// the scheduler reads it in O(1) when deciding how long a router may
	// sleep. Each entry is only touched by the worker owning the router.
	genWake []int64

	// groupOf caches Topology.RouterGroup for the engines' per-step
	// PiggyBack dirty-marking (a divide per stepped router otherwise).
	groupOf []int32

	// engineSteps is the number of router-steps the last RunNetwork[Reference]
	// executed; the scheduler tests and cmd/dfbench read it to quantify how
	// many quiescent router-cycles were skipped.
	engineSteps int64

	// nodeRnd0 holds every node RNG's stream position from just before its
	// first inter-arrival draw in NewNetwork — the only build-time draw
	// that depends on the offered load. Construction snapshots rewind node
	// streams to these positions so a restore can retarget the load and
	// redraw, reproducing a cold build at the new load bit-for-bit.
	// Immutable after construction and shared by snapshots and clones.
	nodeRnd0 []rng.Source

	// ranCycles counts the cycles the engines have driven this network
	// through since construction (or restore). Snapshot uses it as the
	// rebase delta that shifts captured state back to cycle 0.
	ranCycles int64

	// stoppedAt is the cycle count the last engine run actually executed
	// when a Finisher controller ended it before the configured horizon
	// (0: the run went the full distance). newResult uses it to scale
	// per-cycle metrics by measured — not configured — cycles.
	stoppedAt int64

	// core is the structure-of-arrays router state the scheduler engines
	// step (see router.Core). It is run-scoped: built from the wired
	// routers when a scheduler engine starts — so it captures any
	// post-construction rewiring or hand-injected state — and written
	// back when the engine returns. coreLive is true only while a
	// scheduler engine is between those two points; the dispatch helpers
	// below (injection, link loads, in-flight counts) read through the
	// core exactly then, and through the classic routers otherwise
	// (reference engine, pre/post-run).
	core     *router.Core
	coreLive bool

	// telemetry is the probe summary of the most recent engine run (nil
	// without probes); newResult attaches it to the Result.
	telemetry *telemetry.Summary

	// snapOwner is the snapshot this network was restored from (nil for
	// built networks). RestoreNetworkInto overwrites a retired network in
	// place only when it came from the same snapshot — the provenance
	// guarantee that every slice already has exactly the needed shape.
	snapOwner *Snapshot
}

// NewNetwork builds and wires a network from the configuration. The traffic
// pattern may be overridden by pat (pass nil to build it from cfg.Pattern).
func NewNetwork(cfg *Config, pat traffic.Pattern) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mech, err := routing.ByName(cfg.Mechanism)
	if err != nil {
		return nil, err
	}
	topo := topology.New(cfg.Topology)

	// Harmonise VC counts with the mechanism's path requirements.
	rcfg := cfg.Router
	lvc, gvc := mech.VCNeeds()
	rcfg.LocalVCs, rcfg.GlobalVCs = lvc, gvc
	routCfg := cfg.Routing
	routCfg.LocalVCs, routCfg.GlobalVCs = lvc, gvc
	routCfg.PacketSize = rcfg.PacketSize

	root := rng.New(cfg.Seed)
	net := &Network{
		Topo:    topo,
		cfg:     cfg,
		mech:    mech,
		genProb: cfg.Load / float64(rcfg.PacketSize),
	}
	net.pool.New = func() any { return new(packet.Packet) }

	if pat == nil {
		pat, err = traffic.ByName(topo, cfg.Pattern, root.Split())
		if err != nil {
			return nil, err
		}
	}
	net.pattern = pat

	net.env = routing.Env{Topo: topo, Cfg: routCfg}
	if strings.HasPrefix(mech.Name(), "Src-") {
		net.pb = newPBState(net, routCfg.PBGlobalRel, routCfg.PacketSize)
		net.env.Group = net.pb.view
	}

	// Routers.
	recycle := func(p *packet.Packet) { net.pool.Put(p) }
	net.Routers = make([]*router.Router, topo.NumRouters())
	routerRng := root.Split()
	for r := range net.Routers {
		net.Routers[r] = router.New(r, topo, &rcfg, mech, &net.env, routerRng.Split(), recycle)
		if cfg.Tracer != nil {
			// Each router gets its own shard hook; the engines (and the
			// core import) keep the per-router single-goroutine delivery
			// the tracer's lock-free buffers rely on.
			net.Routers[r].SetTrace(cfg.Tracer.Hook(r))
		}
	}

	// Links: one per direction, created from the sender side. Both ends
	// record the far-side router id so the engines can wake receivers at
	// packet- and credit-arrival cycles (schedule.go). Latencies come from
	// the run's latency model, per link. Event horizons: packets on one
	// link are spaced by the serialisation time, credits by the crossbar
	// occupancy of the far input port.
	net.latency = cfg.LatencyModel
	if net.latency == nil {
		net.latency = topology.UniformLatency{Local: rcfg.LocalLatency, Global: rcfg.GlobalLatency}
	}
	if u, ok := net.latency.(topology.UniformLatency); ok {
		net.uniform = &u
	}
	makeLink := func(lat, src, dst int) (*router.EventLink, error) {
		if lat <= 0 {
			return nil, fmt.Errorf("sim: latency model %q assigns non-positive latency %d to link %d->%d",
				net.latency.Name(), lat, src, dst)
		}
		if int64(lat) > net.maxLinkLat {
			net.maxLinkLat = int64(lat)
		}
		return router.NewEventLink(lat, rcfg.SerialCycles(), rcfg.CrossbarCycles()), nil
	}
	p := topo.Params()
	for r := 0; r < topo.NumRouters(); r++ {
		for l := 0; l < p.A-1; l++ {
			nb := topo.LocalNeighbor(r, l)
			link, err := makeLink(net.latency.LocalLatency(topo, r, nb), r, nb)
			if err != nil {
				return nil, err
			}
			inPort := topo.LocalPortTo(nb, topo.RouterLocalIndex(r))
			net.Routers[r].ConnectOutTo(l, link, nb, inPort)
			net.Routers[nb].ConnectInFrom(inPort, link, r, l)
			net.Links = append(net.Links, link)
		}
		for gp := p.A - 1; gp < p.A-1+p.H; gp++ {
			nb, inPort := topo.GlobalNeighbor(r, gp)
			link, err := makeLink(net.latency.GlobalLatency(topo, r, nb), r, nb)
			if err != nil {
				return nil, err
			}
			net.Routers[r].ConnectOutTo(gp, link, nb, inPort)
			net.Routers[nb].ConnectInFrom(inPort, link, r, gp)
			net.Links = append(net.Links, link)
		}
	}

	// Traffic sources. Patterns may silence nodes (Memberer), override
	// per-node loads (NodeLoads), or draw cycle-dependent destinations
	// (Timed) — all optional interfaces that leave the plain paths
	// bit-identical to the seed.
	net.timed, _ = pat.(traffic.Timed)
	member, _ := pat.(traffic.Memberer)
	loads, _ := pat.(traffic.NodeLoads)
	net.nodes = make([]nodeState, topo.NumNodes())
	net.nodeRnd0 = make([]rng.Source, topo.NumNodes())
	nodeRng := root.Split()
	for n := range net.nodes {
		ns := &net.nodes[n]
		ns.rnd = nodeRng.Split()
		net.nodeRnd0[n] = *ns.rnd // pre-draw position, for load retargeting
		ns.q = net.genProb
		if loads != nil {
			if l := loads.NodeLoad(n); l > 0 {
				ns.q = l / float64(rcfg.PacketSize)
			}
		}
		ns.active = ns.q > 0
		if member != nil && !member.Member(n) {
			ns.active = false
		}
		if ns.active && ns.q < 1 {
			ns.logOneMinusQ = math.Log(1 - ns.q)
		}
		if ns.active {
			ns.nextGen = ns.nextArrival(-1, ns.q)
		}
	}

	// Per-job attribution: when the pattern maps nodes to jobs, every
	// router accumulates per-job counters attributed by packet source.
	if jm, ok := pat.(traffic.JobMapper); ok && jm.NumJobs() > 0 {
		net.jobs = jm
		net.nodeJob = make([]int32, topo.NumNodes())
		for n := range net.nodeJob {
			net.nodeJob[n] = int32(jm.NodeJob(n))
		}
		for _, r := range net.Routers {
			r.SetJobAttribution(net.nodeJob, jm.NumJobs())
		}
	}
	net.genWake = make([]int64, topo.NumRouters())
	for r := range net.genWake {
		net.refreshGenWake(r)
	}
	net.groupOf = make([]int32, topo.NumRouters())
	for r := range net.groupOf {
		net.groupOf[r] = int32(topo.RouterGroup(r))
	}
	return net, nil
}

// beginCore flattens the routers into the SoA core for a scheduler
// engine run and returns it; endCore writes the hot state back so
// everything outside the run keeps seeing the classic representation.
// The core is rebuilt from the routers at every run start: construction
// stays out of NewNetwork (the construction-bytes gate measures wiring
// only) and state injected or rewired between runs is always honoured.
func (net *Network) beginCore() *router.Core {
	net.core = router.NewCore(net.Routers)
	net.coreLive = true
	return net.core
}

func (net *Network) endCore() {
	net.core.WriteBack()
	net.coreLive = false
}

// linkLoad dispatches Router.LinkLoad (the PiggyBack refresh input).
func (net *Network) linkLoad(r, port int) int {
	if net.coreLive {
		return net.core.OutputUsed(r, port)
	}
	return net.Routers[r].LinkLoad(port)
}

// nextArrival samples the next Bernoulli(q) success strictly after cycle t.
func (ns *nodeState) nextArrival(t int64, q float64) int64 {
	if q >= 1 {
		return t + 1
	}
	u := 1 - ns.rnd.Float64() // in (0,1]
	gap := int64(math.Log(u)/ns.logOneMinusQ) + 1
	if gap < 1 {
		gap = 1
	}
	return t + gap
}

// refreshGenWake recomputes the cached earliest arrival of router r.
func (net *Network) refreshGenWake(r int) {
	p := net.Topo.Params()
	base := r * p.P
	wake := int64(-1)
	for i := 0; i < p.P; i++ {
		ns := &net.nodes[base+i]
		if !ns.active {
			continue
		}
		if wake < 0 || ns.nextGen < wake {
			wake = ns.nextGen
		}
	}
	net.genWake[r] = wake
}

// generate creates the packets due at cycle now for the nodes of router r.
func (net *Network) generate(r int, now int64) {
	if w := net.genWake[r]; w < 0 || w > now {
		return // no node of r has an arrival due
	}
	p := net.Topo.Params()
	rtr := net.Routers[r]
	core := net.core
	useCore := net.coreLive
	base := r * p.P
	for i := 0; i < p.P; i++ {
		ns := &net.nodes[base+i]
		if !ns.active {
			continue
		}
		for ns.nextGen <= now {
			ns.nextGen = ns.nextArrival(ns.nextGen, ns.q)
			src := base + i
			var dst int
			if net.timed != nil {
				// Timed patterns decline draws in off phases; those are
				// not generation attempts, so the off-phase decision comes
				// before the backlog count. (The plain path below keeps
				// the seed's order — backlog check first, no dest draw —
				// bit-for-bit.)
				dst = net.timed.DestAt(src, now, ns.rnd)
				if dst < 0 {
					continue
				}
				if net.injectionBacklog(core, useCore, rtr, r, i) >= net.cfg.Router.InjectionQueuePackets {
					net.noteBacklogged(core, useCore, rtr, r, src)
					continue
				}
			} else {
				if net.injectionBacklog(core, useCore, rtr, r, i) >= net.cfg.Router.InjectionQueuePackets {
					net.noteBacklogged(core, useCore, rtr, r, src)
					continue
				}
				dst = net.pattern.Dest(src, ns.rnd)
				if dst < 0 {
					continue
				}
			}
			pkt := net.pool.Get().(*packet.Packet)
			pkt.Reset()
			ns.seq++
			pkt.ID = uint64(src)<<32 | ns.seq
			pkt.Src = src
			if net.nodeJob != nil {
				pkt.Job = net.nodeJob[src]
			}
			pkt.Dst = dst
			pkt.Size = net.cfg.Router.PacketSize
			pkt.GenTime = now
			min := net.Topo.MinimalPathLength(src, dst)
			pkt.MinLocal, pkt.MinGlobal = min.Local, min.Global
			pkt.MinLinkLat = net.minPathLinkLat(src, dst, min)
			net.mech.OnGenerate(&net.env, pkt, ns.rnd)
			if useCore {
				core.EnqueueInjection(r, now, pkt)
			} else {
				rtr.EnqueueInjection(now, pkt)
			}
		}
	}
	net.refreshGenWake(r)
}

// injectionBacklog and noteBacklogged dispatch the generation-side
// router calls of generate to the live representation.
func (net *Network) injectionBacklog(core *router.Core, useCore bool, rtr *router.Router, r, nodeIdx int) int {
	if useCore {
		return core.InjectionBacklog(r, nodeIdx)
	}
	return rtr.InjectionBacklog(nodeIdx)
}

func (net *Network) noteBacklogged(core *router.Core, useCore bool, rtr *router.Router, r, src int) {
	if useCore {
		core.NoteBacklogged(r, src)
	} else {
		rtr.NoteBacklogged(src)
	}
}

// minPathLinkLat prices the links of the unique minimal path from src to
// dst under the run's latency model: [local to the exit router] + global +
// [local from the entry router], with the uniform model short-circuited to
// two multiplies (the hot, seed-identical case).
func (net *Network) minPathLinkLat(src, dst int, min topology.PathLength) int64 {
	if u := net.uniform; u != nil {
		return int64(min.Local)*int64(u.Local) + int64(min.Global)*int64(u.Global)
	}
	t := net.Topo
	return topology.MinimalPathLinkLatency(t, net.latency, t.NodeRouter(src), t.NodeRouter(dst))
}

// LiveJobDelivered sums job j's delivered packets since the start of the
// run — warm-up included, independent of the measurement window — over the
// given routers (nil: all routers). Intra-job traffic is delivered only at
// routers hosting the job, so a Controller polling a packet-target job may
// pass just its hosting routers. Safe to call between cycles and after the
// run.
func (net *Network) LiveJobDelivered(job int, routers []int) int64 {
	var sum int64
	if routers == nil {
		for _, r := range net.Routers {
			sum += r.LiveJobDelivered(job)
		}
		return sum
	}
	for _, r := range routers {
		sum += net.Routers[r].LiveJobDelivered(job)
	}
	return sum
}

// EngineSteps returns the number of router-steps the last
// RunNetwork/RunNetworkReference call executed — the denominator of the
// scheduler's skip ratio (cmd/dfbench records it per release).
func (net *Network) EngineSteps() int64 { return net.engineSteps }

// InFlight counts packets currently inside the network (buffers and links).
// O(network); intended for conservation checks and the deadlock watchdog.
func (net *Network) InFlight() int {
	n := 0
	if net.coreLive {
		n = net.core.InFlight()
	} else {
		for _, r := range net.Routers {
			n += r.InFlight()
		}
	}
	for _, l := range net.Links {
		n += l.InFlight()
	}
	return n
}
