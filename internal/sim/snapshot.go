package sim

import (
	"fmt"
	"math"

	"dragonfly/internal/packet"
	"dragonfly/internal/rng"
	"dragonfly/internal/router"
	"dragonfly/internal/topology"
	"dragonfly/internal/traffic"
)

// Snapshot is a frozen, cloneable image of a wired network. Capturing one
// costs a deep clone; restoring one costs another deep clone — a few dozen
// slab allocations plus memcpys — instead of the hundreds of thousands of
// small allocations NewNetwork performs to re-wire the same topology. Two
// capture points are supported:
//
//   - Construction snapshots (taken before any engine run) are reusable for
//     ANY load: every node RNG is rewound to its position from just before
//     the only load-dependent build-time draw (see Network.nodeRnd0) and the
//     draw is redone at the target load, so a restored network is
//     bit-identical to a cold NewNetwork at that load.
//
//   - Warm snapshots (taken after WarmupNetwork) additionally carry the
//     warmed-up queue and credit state, rebased to cycle 0. Restoring at the
//     snapshot's own load is bit-identical to resuming the original run:
//     all state the engines read is captured (router ports, calendars,
//     links, node clocks, PB bits), packets in flight included, and a
//     restored run starting with every router active only adds provable
//     no-op steps (see schedule.go). Restoring at a different load is an
//     approximation: the node processes are re-aimed at the new rate and
//     the caller re-runs a configurable warm-up tail (cfg.WarmupCycles of
//     the restored run) to let queue depths re-converge.
//
// A Snapshot is immutable after capture and safe to restore from
// concurrently; each restored network is fully independent.
type Snapshot struct {
	cfg  Config // build configuration, Probes/Tracer stripped
	warm int64  // warm-up cycles baked into the captured state (0: construction)
	tmpl *Network
	// portLinks is the port→link-index table of the captured network
	// (and of every clone of it), computed once at capture so every clone
	// rewires ports by index (see router.PortLinkIndex).
	portLinks []int32
}

// Snapshot captures the network's current state into a frozen template.
// The network must be between engine runs (it errors while a scheduler
// engine holds the state in its SoA core). The capture is rebased to cycle
// 0 using the cycles the network has run so far, so restores always start
// at cycle 0 regardless of how the template was prepared.
func (net *Network) Snapshot() (*Snapshot, error) {
	if net.coreLive {
		return nil, fmt.Errorf("sim: cannot snapshot while an engine run is live")
	}
	cfg := *net.cfg
	cfg.Probes = nil
	cfg.Tracer = nil
	snap := &Snapshot{cfg: cfg, warm: net.ranCycles}
	snap.portLinks = router.PortLinkIndex(net.Routers, net.Links)
	snap.tmpl = cloneNetwork(net, &snap.cfg, net.ranCycles, snap.portLinks, nil)
	return snap, nil
}

// NewSnapshot builds a network from cfg, optionally warms it for warmCycles
// (without ever enabling measurement), and captures it. Probes and tracers
// never apply to template preparation. The pattern is built from
// cfg.Pattern; networks built around an explicit pattern instance must
// capture through Network.Snapshot directly, and the caller then owns the
// compatibility of restore configurations with that pattern.
func NewSnapshot(cfg Config, warmCycles int64) (*Snapshot, error) {
	cfg.Probes = nil
	cfg.Tracer = nil
	net, err := NewNetwork(&cfg, nil)
	if err != nil {
		return nil, err
	}
	if warmCycles > 0 {
		if err := WarmupNetwork(net, &cfg, warmCycles); err != nil {
			return nil, err
		}
	}
	return net.Snapshot()
}

// Warm returns the warm-up cycles baked into the captured state (0 for a
// construction snapshot).
func (s *Snapshot) Warm() int64 { return s.warm }

// BaseConfig returns the configuration the snapshot was captured under
// (Probes/Tracer stripped).
func (s *Snapshot) BaseConfig() Config { return s.cfg }

// latName resolves the latency-model identity of a configuration: the
// registry name plus the model value's parameters (both provided models are
// plain parameter structs), so two uniform models with different constants
// do not alias. A nil model is the uniform model at the Router-config
// latencies, matching the NewNetwork default.
func latName(c *Config) string {
	m := c.LatencyModel
	if m == nil {
		m = topology.UniformLatency{Local: c.Router.LocalLatency, Global: c.Router.GlobalLatency}
	}
	return fmt.Sprintf("%s:%v", m.Name(), m)
}

// CompatibleWith reports whether cfg may be restored from this snapshot.
// Everything that shapes the wired structure or the random streams must
// match the capture configuration: topology, mechanism, pattern, seed,
// router and routing parameters and latency model.
// Load, cycle counts, worker count, probes and tracer are free — load
// freely for construction snapshots, within the warm-reuse contract
// documented on Snapshot for warm ones.
func (s *Snapshot) CompatibleWith(cfg *Config) error {
	b := &s.cfg
	switch {
	case cfg.Topology != b.Topology:
		return fmt.Errorf("sim: snapshot topology %+v does not match %+v", b.Topology, cfg.Topology)
	case cfg.Mechanism != b.Mechanism:
		return fmt.Errorf("sim: snapshot mechanism %q does not match %q", b.Mechanism, cfg.Mechanism)
	case cfg.Pattern != b.Pattern:
		return fmt.Errorf("sim: snapshot pattern %q does not match %q", b.Pattern, cfg.Pattern)
	case cfg.Seed != b.Seed:
		return fmt.Errorf("sim: snapshot seed %d does not match %d", b.Seed, cfg.Seed)
	case cfg.Router != b.Router:
		return fmt.Errorf("sim: snapshot router config does not match")
	case cfg.Routing != b.Routing:
		return fmt.Errorf("sim: snapshot routing config does not match")
	case latName(cfg) != latName(b):
		return fmt.Errorf("sim: snapshot latency model %q does not match %q", latName(b), latName(cfg))
	}
	return nil
}

// RestoreNetwork materialises a fresh, fully independent network from the
// snapshot, ready for RunNetwork under cfg — without re-running wiring (and,
// for warm snapshots at the capture load, without re-running warm-up).
// Restores from one snapshot are safe concurrently.
//
// Construction snapshots always re-aim the node generation processes from
// their pre-draw RNG positions, reproducing a cold NewNetwork at cfg.Load
// bit-for-bit. Warm snapshots restored at the capture load are pure clones;
// restored at a different load they re-aim the node processes at the new
// rate and rely on the caller's cfg.WarmupCycles as the re-warm tail.
func RestoreNetwork(snap *Snapshot, cfg *Config) (*Network, error) {
	return RestoreNetworkInto(snap, cfg, nil)
}

// RestoreNetworkInto is RestoreNetwork recycling a retired network: when
// old was itself restored from snap (and is between engine runs), its
// slabs — which have exactly the shapes a restore needs — are overwritten
// in place, so the steady state of a sweep that restores, runs and
// restores again allocates almost nothing per point. old may be nil, from
// a different snapshot, or mid-run; those cases silently fall back to a
// fresh restore. The caller must have finished with old entirely (results
// are safe: a Result aliases no network state), and the returned network
// may or may not be old — use the return value, never old, afterwards.
func RestoreNetworkInto(snap *Snapshot, cfg *Config, old *Network) (*Network, error) {
	if err := snap.CompatibleWith(cfg); err != nil {
		return nil, err
	}
	var into *Network
	if old != nil && old.snapOwner == snap && !old.coreLive {
		into = old
	}
	net := cloneNetwork(snap.tmpl, cfg, 0, snap.portLinks, into)
	net.snapOwner = snap
	if snap.warm == 0 {
		net.retargetFromStart()
	} else if cfg.Load != snap.cfg.Load {
		net.retargetWarm()
	}
	return net, nil
}

// cloneNetwork deep-copies src into an independent network bound to cfg,
// with every absolute cycle in the captured state shifted rebase cycles
// into the past. Immutable structure — topology, mechanism, pattern,
// latency model, group map, the pre-draw node RNG bank — is shared;
// everything the engines mutate is copied, with router, link and node
// state allocated in bulk slabs (see router.CloneRouters/CloneLinkSlice).
// portLinks is src's port→link-index table (see router.PortLinkIndex).
//
// into, when non-nil, must be a network previously produced by
// cloneNetwork from this same src (the RestoreNetworkInto provenance
// check): its routers, links, nodes and per-network slices are then
// overwritten in place instead of reallocated, and any state left over
// from its runs (run counters, telemetry, stale references inside the
// reused structures) is reset.
func cloneNetwork(src *Network, cfg *Config, rebase int64, portLinks []int32, into *Network) *Network {
	clone := into
	reuse := into != nil
	if !reuse {
		clone = &Network{}
		clone.pool.New = func() any { return new(packet.Packet) }
	}
	clone.Topo = src.Topo
	clone.cfg = cfg
	clone.mech = src.mech
	clone.pattern = src.pattern
	clone.genProb = cfg.Load / float64(cfg.Router.PacketSize)
	clone.latency = src.latency
	clone.maxLinkLat = src.maxLinkLat
	clone.groupOf = src.groupOf
	clone.nodeRnd0 = src.nodeRnd0
	clone.timed, _ = src.pattern.(traffic.Timed)
	clone.ranCycles = 0
	clone.engineSteps = 0
	clone.telemetry = nil
	clone.core = nil
	clone.coreLive = false
	if u := src.uniform; u != nil {
		if reuse && clone.uniform != nil {
			*clone.uniform = *u
		} else {
			v := *u
			clone.uniform = &v
		}
	} else {
		clone.uniform = nil
	}
	clone.env = src.env
	if src.pb != nil {
		if !reuse || clone.pb == nil {
			clone.pb = newPBState(clone, src.env.Cfg.PBGlobalRel, src.env.Cfg.PacketSize)
		}
		for g := range clone.pb.bits {
			copy(clone.pb.bits[g], src.pb.bits[g])
		}
		copy(clone.pb.updates, src.pb.updates)
		clone.env.Group = clone.pb.view
	} else {
		clone.pb = nil
	}
	spec := router.CloneSpec{
		Env:       &clone.env,
		NodeJob:   nil,
		PortLinks: portLinks,
		Rebase:    rebase,
	}
	if reuse && len(clone.Links) == len(src.Links) {
		router.CloneLinkSliceInto(src.Links, clone.Links, rebase)
	} else {
		clone.Links = router.CloneLinkSlice(src.Links, rebase)
	}
	spec.Cloned = clone.Links
	clone.jobs = src.jobs
	if src.nodeJob == nil {
		clone.nodeJob = nil
	} else if reuse && len(clone.nodeJob) == len(src.nodeJob) {
		copy(clone.nodeJob, src.nodeJob)
	} else {
		clone.nodeJob = append([]int32(nil), src.nodeJob...)
	}
	spec.NodeJob = clone.nodeJob
	spec.Recycle = func(p *packet.Packet) { clone.pool.Put(p) }
	if reuse && len(clone.Routers) == len(src.Routers) {
		router.CloneRoutersInto(src.Routers, clone.Routers, spec)
	} else {
		clone.Routers = router.CloneRouters(src.Routers, spec)
	}
	if cfg.Tracer != nil {
		for r, rt := range clone.Routers {
			rt.SetTrace(cfg.Tracer.Hook(r))
		}
	}
	if reuse && len(clone.nodes) == len(src.nodes) {
		for n := range src.nodes {
			sn, dn := &src.nodes[n], &clone.nodes[n]
			r := dn.rnd
			*dn = *sn
			*r = *sn.rnd
			dn.rnd = r
			dn.nextGen -= rebase
		}
	} else {
		clone.nodes = make([]nodeState, len(src.nodes))
		rnds := make([]rng.Source, len(src.nodes))
		for n := range src.nodes {
			sn, dn := &src.nodes[n], &clone.nodes[n]
			*dn = *sn
			rnds[n] = *sn.rnd
			dn.rnd = &rnds[n]
			dn.nextGen -= rebase
		}
	}
	if !reuse || len(clone.genWake) != len(src.genWake) {
		clone.genWake = make([]int64, len(src.genWake))
	}
	for r := range clone.genWake {
		clone.refreshGenWake(r)
	}
	return clone
}

// retargetFromStart re-runs the node-source setup of NewNetwork against the
// network's current configuration: every node stream is rewound to its
// pre-draw position and the first inter-arrival is redrawn at the (possibly
// new) load. After it, the network is bit-identical to a cold build.
func (net *Network) retargetFromStart() {
	loads, _ := net.pattern.(traffic.NodeLoads)
	member, _ := net.pattern.(traffic.Memberer)
	packetSize := float64(net.cfg.Router.PacketSize)
	for n := range net.nodes {
		ns := &net.nodes[n]
		*ns.rnd = net.nodeRnd0[n]
		ns.seq = 0
		ns.nextGen = 0
		ns.q = net.genProb
		if loads != nil {
			if l := loads.NodeLoad(n); l > 0 {
				ns.q = l / packetSize
			}
		}
		ns.active = ns.q > 0
		if member != nil && !member.Member(n) {
			ns.active = false
		}
		ns.logOneMinusQ = 0
		if ns.active && ns.q < 1 {
			ns.logOneMinusQ = math.Log(1 - ns.q)
		}
		if ns.active {
			ns.nextGen = ns.nextArrival(-1, ns.q)
		}
	}
	for r := range net.genWake {
		net.refreshGenWake(r)
	}
}

// retargetWarm re-aims the node generation processes at the network's
// current load without disturbing the warmed-up network state: rates and
// membership are recomputed and the next arrivals redrawn from the streams'
// CURRENT positions (sequence numbers keep counting, so packet IDs never
// collide with in-flight warm packets). Queue depths re-converge over the
// caller's re-warm tail.
func (net *Network) retargetWarm() {
	loads, _ := net.pattern.(traffic.NodeLoads)
	member, _ := net.pattern.(traffic.Memberer)
	packetSize := float64(net.cfg.Router.PacketSize)
	for n := range net.nodes {
		ns := &net.nodes[n]
		ns.q = net.genProb
		if loads != nil {
			if l := loads.NodeLoad(n); l > 0 {
				ns.q = l / packetSize
			}
		}
		ns.active = ns.q > 0
		if member != nil && !member.Member(n) {
			ns.active = false
		}
		ns.logOneMinusQ = 0
		if ns.active && ns.q < 1 {
			ns.logOneMinusQ = math.Log(1 - ns.q)
		}
		if ns.active {
			ns.nextGen = ns.nextArrival(-1, ns.q)
		} else {
			ns.nextGen = 0
		}
	}
	for r := range net.genWake {
		net.refreshGenWake(r)
	}
}
