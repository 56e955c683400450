// The structure-of-arrays router core. Core flattens the hot state of
// every router of a network — credits, queue occupancies, VC round-robin
// pointers, allocator scratch, due-queue calendars — into per-network
// arrays indexed by (router, port[, vc]), so the scheduler engines step
// saturated networks as batched loops over contiguous memory instead of
// chasing per-router pointer graphs. See DESIGN.md ("Structure-of-arrays
// router core") for the indexing scheme and the bit-identity argument.
//
// The Core is a run-scoped view: the engines build it from the wired
// []*Router at run start (importing any state already buffered there),
// step it instead of the routers, and write the hot state back when the
// run ends — so everything outside the run (construction, debug
// snapshots, the dense reference engine, manual steppers) keeps seeing
// the classic per-router representation. Measurement accumulators are
// not copied at all: the Core aliases each router's stats.Router,
// per-job slices and RNG stream, so result collection, the deadlock
// watchdog and the dynamic scheduler's live counters read the same
// memory whichever representation is live.
package router

import (
	"fmt"
	"math/bits"

	"dragonfly/internal/packet"
	"dragonfly/internal/rng"
	"dragonfly/internal/routing"
	"dragonfly/internal/stats"
	"dragonfly/internal/topology"
)

// pendRec is the flat mirror of pendingTransfer (the completion cycle
// lives in inBusy). Multi-field records read and written together stay
// packed in one array element instead of five parallel ones: the point
// of the flat layout is cache-line economy, not arrays for their own sake.
type pendRec struct {
	vc      int32
	outPort int32
	outVC   int32
	group   int32
	kind    packet.ActionKind
	active  bool
}

// candRec is one allocator candidate: a routing request for the head
// packet of one input VC.
type candRec struct {
	vc    int32
	port  int32
	outVC int32
	group int32
	kind  packet.ActionKind
}

// outCandRec is one submission at an output: the proposing input port
// and the index of its candidate.
type outCandRec struct{ in, idx int32 }

// inPort packs one input port's mutable hot state: everything the
// allocator, grant and transfer-completion stages read or write per
// port sits in one array element (one or two cache lines) instead of
// six parallel arrays.
type inPort struct {
	busy    int64   // crossbar transfer completes at
	pend    pendRec // pending crossbar transfer (completion cycle in busy)
	rrVC    int32   // VC round-robin pointer
	qTotal  int32   // packets across the port's VC queues
	candN   int32   // allocator: candidates gathered this cycle
	granted bool    // allocator: input granted this cycle
}

// outPort packs one output port's mutable hot state (see inPort).
type outPort struct {
	linkBusy int64 // serializer frees at
	xbarBusy int64 // crossbar slot frees at
	relAt    int64 // pending buffer release falls due at
	relPhits int32
	relVC    int32
	occ      int32 // reserved phits across VCs
	qTotal   int32 // packets across the port's VC queues
	free     int32 // sum of credits across VCs
	rr       int32 // allocation round-robin pointer (input index)
	rrVC     int32 // link VC arbitration pointer
}

// portWire is one port's read-only wiring: the link, its cached latency
// and the far-side address.
type portWire struct {
	link     *EventLink // nil for injection (input) / ejection (output) ports
	lat      int32      // cached EventLink.Latency (0 without a link)
	peer     int32      // far-side router id (-1 without a link)
	peerPort int32
}

// inQState is the packed bookkeeping of one input VC ring: its window
// into the arena (off/qcap), FIFO position (head/qlen) and buffered phits.
type inQState struct{ off, qcap, head, qlen, occ int32 }

// outQState is the packed bookkeeping of one output VC ring, plus the
// VC's reserved phits and downstream credit balance (meaningless for
// ejection) — everything the link stage reads per VC, on one cache line.
type outQState struct{ off, qcap, head, qlen, occVC, credits int32 }

// evRing is the packed bookkeeping of one in-core link-event ring.
type evRing struct{ off, qcap, head, qlen int32 }

// Core holds the flattened hot state of every router of one network.
// Array indices: pi = router*NP + port for per-port state and
// vi = pi*maxVC + vc for per-VC state, with NP the router radix and
// maxVC the widest VC count of any port class. Per-port-class constants
// (capacities, VC counts, thresholds) are identical across routers and
// stored once, indexed by port only. Packet queues are fixed-capacity
// rings carved out of two shared arenas (capacities are hard occupancy
// bounds under the credit protocol), so steady-state cycles never
// allocate — the zero-allocation gate in internal/sim relies on this.
//
// Concurrency contract (mirrors Router): StepRouter touches only state
// of the stepped router's index range, so disjoint routers may be stepped
// concurrently. PushDue and EarliestExternal likewise touch only router
// r's rings and cached horizon, so they may run concurrently for disjoint
// r, but never alongside StepRouter. Everything else (SetSink, WriteBack,
// phase flips) must happen between cycles. Every router must have an event sink
// installed (SetSink/SetAllSinks) before it is stepped: link events leave
// the core only through it.
type Core struct {
	routers []*Router
	topo    *topology.Topology
	cfg     *Config
	mech    routing.Mechanism
	env     *routing.Env
	recycle func(*packet.Packet)

	nr    int // routers
	np    int // ports per router
	maxVC int // VC stride (max VCs of any port class)

	// Derived cycle constants, hoisted out of the hot loops.
	size      int   // packet size in phits
	pipeline  int64 // input pipeline latency
	xbar      int64 // crossbar occupancy per packet
	serial    int64 // link serialisation per packet
	perRouter int64 // pathCost per-router term
	capVC     int32 // output buffer capacity per VC (uniform)
	allocIter int
	arb       Arbitration

	// Per-port-class constants, indexed by port (identical across routers).
	class     []topology.PortClass
	nInVC     []int32 // input VC count
	inCapVC   []int32 // input buffer capacity per VC, phits
	nOutVC    []int32 // output VC count
	downCapVC []int32 // downstream capacity per VC (0 for ejection)
	downTotal []int32 // total downstream capacity
	threshVC  []int32 // congestion threshold per VC, phits

	// Port-occupancy bitmasks, maskWords words per router: bit p set iff
	// the port has packets buffered (inQTotal/outQTotal > 0). The
	// allocator and link stages iterate set bits instead of scanning all
	// ports — ascending bit order preserves the ascending-port iteration
	// the bit-identity argument rests on.
	maskWords  int
	inOccMask  []uint64
	outOccMask []uint64

	// Per-port state, indexed by pi: the mutable hot fields of each port
	// are packed into one record (inPort / outPort) so a stage touches one
	// cache line of port state, not one line per parallel array; the
	// read-only wiring (link, peer, latency) lives in a companion record.
	inP  []inPort
	inW  []portWire
	outP []outPort
	outW []portWire

	// Per-VC packet rings, indexed by vi: fixed-capacity windows into the
	// two arenas, FIFO via head/len. Each queue's bookkeeping lives in one
	// packed record so a queue operation touches one cache line of
	// metadata, not one line per parallel array.
	inQData  []*packet.Packet // input-queue arena
	inQ      []inQState
	outQData []*packet.Packet
	outQ     []outQState

	// In-core link transport: per-port event rings fed by PushDue. Payloads
	// ride the LinkEvent into these rings (see LinkEvent); the EventLinks
	// stay empty while the core runs and are refilled by WriteBack.
	// Packet-arrival rings are per input port, credit rings per output
	// port, both indexed by pi; the pend masks (bit p set iff the port's
	// ring is non-empty) drive the pop scans and EarliestExternal. Only
	// linked ports get a ring.
	arrData     []pktEvent
	arrQ        []evRing
	crdData     []crdEvent
	crdQ        []evRing
	arrPendMask []uint64
	crdPendMask []uint64

	// Cached EarliestExternal per router: pushes fold into extMin, pops
	// mark it dirty, the next query recomputes (each event causes at most
	// one recompute, each query at most one scan).
	extMin   []int64
	extDirty []bool

	// Per-router aliases into the classic representation and calendars.
	rnd      []*rng.Source
	stats    []*stats.Router // aliases Router.stats: single writer per entry
	jobStats [][]stats.Job   // aliases Router.jobStats backing arrays
	jobLive  [][]int64
	hook     []func(*packet.Packet) // deliver hooks
	trace    []TraceFn
	notify   []func(LinkEvent)
	relDue   []dueQueue
	xferDue  []dueQueue
	views    []coreView

	nodeJob   []int32
	measuring bool
	batch     int

	// Allocator scratch. Candidates are per (input port, slot) at stride
	// maxVC (at most one candidate per VC); submissions per (output port,
	// slot) at stride np (at most one submission per input). candIn and
	// outTouched are per-router regions at stride np with counts in
	// candInN / local counters, so only ports with work are ever reset.
	cand       []candRec
	candIn     []int32 // per router region: inputs with candidates
	candInN    []int32 // per router
	outCand    []outCandRec
	outCandN   []int32 // per pi
	outTouched []int32 // per router region: outputs with submissions
}

// coreView adapts one router's slice of the Core to routing.RouterView.
type coreView struct {
	c *Core
	r int32
}

// NewCore flattens the wired routers into a fresh Core, importing any
// state already buffered in them (normally empty right after wiring;
// tests may pre-inject packets, and a previous run's write-back is
// re-imported the same way). Every linked port must know its far side
// (see Router.ConnectOutTo): NewCore panics on a peerless link, because
// the in-core transport addresses every event to the peer.
func NewCore(routers []*Router) *Core {
	r0 := routers[0]
	topo, cfg := r0.topo, r0.cfg
	nr, np := len(routers), topo.NumPorts()
	maxVC := cfg.LocalVCs
	if cfg.GlobalVCs > maxVC {
		maxVC = cfg.GlobalVCs
	}
	if maxVC < 1 {
		maxVC = 1
	}
	c := &Core{
		routers: routers,
		topo:    topo,
		cfg:     cfg,
		mech:    r0.mech,
		env:     r0.env,
		recycle: r0.recycle,
		nr:      nr, np: np, maxVC: maxVC,

		size:      cfg.PacketSize,
		pipeline:  int64(cfg.PipelineCycles),
		xbar:      int64(cfg.CrossbarCycles()),
		serial:    int64(cfg.SerialCycles()),
		perRouter: int64(cfg.PipelineCycles + cfg.CrossbarCycles() + cfg.SerialCycles()),
		capVC:     int32(cfg.OutputBufferPhits),
		allocIter: cfg.AllocIterations,
		arb:       cfg.Arbitration,

		nodeJob:   r0.nodeJob,
		measuring: r0.measuring,
		batch:     r0.batch,
	}
	c.initPortClasses()
	c.allocArrays(routers)
	for r, rt := range routers {
		c.importRouter(r, rt)
	}
	return c
}

// initPortClasses fills the per-port-class constant tables.
func (c *Core) initPortClasses() {
	cfg := c.cfg
	np := c.np
	c.class = make([]topology.PortClass, np)
	c.nInVC = make([]int32, np)
	c.inCapVC = make([]int32, np)
	c.nOutVC = make([]int32, np)
	c.downCapVC = make([]int32, np)
	c.downTotal = make([]int32, np)
	c.threshVC = make([]int32, np)
	for p := 0; p < np; p++ {
		cls := c.topo.PortClass(p)
		c.class[p] = cls
		switch cls {
		case topology.LocalPort:
			c.nInVC[p] = int32(cfg.LocalVCs)
			c.inCapVC[p] = int32(cfg.LocalVCPhits)
			c.nOutVC[p] = int32(cfg.LocalVCs)
			c.downCapVC[p] = int32(cfg.LocalVCPhits)
		case topology.GlobalPort:
			c.nInVC[p] = int32(cfg.GlobalVCs)
			c.inCapVC[p] = int32(cfg.GlobalVCPhits)
			c.nOutVC[p] = int32(cfg.GlobalVCs)
			c.downCapVC[p] = int32(cfg.GlobalVCPhits)
		case topology.InjectionPort:
			c.nInVC[p] = 1
			c.inCapVC[p] = int32(cfg.InjectionQueuePackets * cfg.PacketSize)
			c.nOutVC[p] = 1 // ejection: the node consumes unconditionally
		}
		c.downTotal[p] = c.nOutVC[p] * c.downCapVC[p]
		c.threshVC[p] = int32(cfg.CongestionThreshold * float64(int32(cfg.OutputBufferPhits)+c.downCapVC[p]))
	}
}

// allocArrays sizes every flat array and carves the packet rings and
// due-queue buffers out of shared arenas. Ring capacities are the hard
// occupancy bounds of the credit protocol, widened to any state already
// imported (tests may pre-inject beyond the steady-state bound).
func (c *Core) allocArrays(routers []*Router) {
	nr, np, maxVC := c.nr, c.np, c.maxVC
	npp := nr * np
	nvv := npp * maxVC

	c.maskWords = (np + 63) >> 6
	c.inOccMask = make([]uint64, nr*c.maskWords)
	c.outOccMask = make([]uint64, nr*c.maskWords)
	c.arrPendMask = make([]uint64, nr*c.maskWords)
	c.crdPendMask = make([]uint64, nr*c.maskWords)
	c.extMin = make([]int64, nr)
	c.extDirty = make([]bool, nr)

	c.inP = make([]inPort, npp)
	c.inW = make([]portWire, npp)
	c.outP = make([]outPort, npp)
	c.outW = make([]portWire, npp)

	c.inQ = make([]inQState, nvv)
	c.outQ = make([]outQState, nvv)

	c.rnd = make([]*rng.Source, nr)
	c.stats = make([]*stats.Router, nr)
	c.jobStats = make([][]stats.Job, nr)
	c.jobLive = make([][]int64, nr)
	c.hook = make([]func(*packet.Packet), nr)
	c.trace = make([]TraceFn, nr)
	c.notify = make([]func(LinkEvent), nr)
	c.relDue = make([]dueQueue, nr)
	c.xferDue = make([]dueQueue, nr)
	c.views = make([]coreView, nr)
	for r := range c.views {
		c.views[r] = coreView{c: c, r: int32(r)}
	}

	c.cand = make([]candRec, nvv)
	c.candIn = make([]int32, npp)
	c.candInN = make([]int32, nr)
	c.outCand = make([]outCandRec, npp*np)
	c.outCandN = make([]int32, npp)
	c.outTouched = make([]int32, npp)

	c.arrQ = make([]evRing, npp)
	c.crdQ = make([]evRing, npp)

	// Ring geometry: one offset/capacity pair per VC queue, data in two
	// shared arenas (all of a router's queue heads end up on a handful of
	// cache lines instead of one allocation each). Link-event ring
	// capacities follow the EventLink in-flight bound (latency/spacing plus
	// slack), widened to any events already buffered in the link.
	size := int32(c.size)
	outCapPkts := c.capVC / size
	pktSpacing, crdSpacing := c.serial, c.xbar
	if pktSpacing < 1 {
		pktSpacing = 1
	}
	if crdSpacing < 1 {
		crdSpacing = 1
	}
	var inTot, outTot, arrTot, crdTot int32
	for r := 0; r < nr; r++ {
		rt := routers[r]
		for p := 0; p < np; p++ {
			pi := r*np + p
			if el := rt.inputs[p].link; el != nil {
				cp := int32(int64(el.latency)/pktSpacing) + 4
				if n := int32(el.pktTail.Load()-el.pktHead.Load()) + 4; n > cp {
					cp = n
				}
				c.arrQ[pi] = evRing{off: arrTot, qcap: cp}
				arrTot += cp
			}
			if el := rt.outputs[p].link; el != nil {
				cp := int32(int64(el.latency)/crdSpacing) + 4
				if n := int32(el.crdTail.Load()-el.crdHead.Load()) + 4; n > cp {
					cp = n
				}
				c.crdQ[pi] = evRing{off: crdTot, qcap: cp}
				crdTot += cp
			}
			inCapPkts := c.inCapVC[p] / size
			in := &rt.inputs[p]
			for vc := 0; vc < int(c.nInVC[p]); vc++ {
				vi := pi*maxVC + vc
				cp := inCapPkts
				q := &in.vcs[vc]
				if n := int32(len(q.pkts) - q.head); n > cp {
					cp = n
				}
				c.inQ[vi].off = inTot
				c.inQ[vi].qcap = cp
				inTot += cp
			}
			out := &rt.outputs[p]
			for vc := 0; vc < int(c.nOutVC[p]); vc++ {
				vi := pi*maxVC + vc
				cp := outCapPkts
				if n := int32(len(out.queues[vc]) - out.qheads[vc]); n > cp {
					cp = n
				}
				c.outQ[vi].off = outTot
				c.outQ[vi].qcap = cp
				outTot += cp
			}
		}
	}
	c.inQData = make([]*packet.Packet, inTot)
	c.outQData = make([]*packet.Packet, outTot)
	c.arrData = make([]pktEvent, arrTot)
	c.crdData = make([]crdEvent, crdTot)

	// Due-queue buffers from one arena, capacity-capped sub-slices: a
	// queue that outgrows its window reallocates privately via append.
	arena := make([]portDue, nr*2*np)
	pos := 0
	for r := 0; r < nr; r++ {
		c.relDue[r].q = arena[pos : pos : pos+np]
		pos += np
		c.xferDue[r].q = arena[pos : pos : pos+np]
		pos += np
	}
}

// importRouter copies router rt's hot state into the flat arrays and
// aliases its accumulators.
func (c *Core) importRouter(r int, rt *Router) {
	np, maxVC := c.np, c.maxVC
	base := r * np
	c.rnd[r] = rt.rnd
	c.stats[r] = &rt.stats
	c.jobStats[r] = rt.jobStats
	c.jobLive[r] = rt.jobLive
	c.hook[r] = rt.deliverHook
	c.trace[r] = rt.trace
	c.extDirty[r] = true
	importDue(&c.relDue[r], &rt.relDue)
	importDue(&c.xferDue[r], &rt.xferDue)
	for p := 0; p < np; p++ {
		pi := base + p
		in := &rt.inputs[p]
		c.inP[pi].busy = in.busyUntil
		c.inP[pi].rrVC = int32(in.rrVC)
		c.inP[pi].qTotal = int32(in.qTotal)
		c.inW[pi].link = in.link
		c.inW[pi].peer = int32(rt.peerIn[p])
		c.inW[pi].peerPort = int32(rt.peerInPort[p])
		// In-flight packets move from the EventLink into the core's arrival
		// ring (the ring is the calendar); the link stays empty until
		// WriteBack refills it.
		if el := in.link; el != nil {
			if rt.peerIn[p] < 0 {
				panic(fmt.Sprintf("router %d: input port %d has a link but no peer", r, p))
			}
			c.inW[pi].lat = int32(el.latency)
			head, tail := el.pktHead.Load(), el.pktTail.Load()
			q := &c.arrQ[pi]
			for i := head; i < tail; i++ {
				ev := &el.pkts[i&el.pmask]
				c.arrData[q.off+q.qlen] = *ev
				q.qlen++
				ev.p = nil
			}
			if q.qlen > 0 {
				c.arrPendMask[r*c.maskWords+p>>6] |= 1 << (uint(p) & 63)
			}
			el.pktHead.Store(tail)
		}
		c.inP[pi].pend = pendRec{
			active:  in.pending.active,
			vc:      int32(in.pending.vcIdx),
			outPort: int32(in.pending.outPort),
			outVC:   int32(in.pending.outVC),
			kind:    in.pending.action.Kind,
			group:   int32(in.pending.action.Group),
		}
		if c.inP[pi].qTotal > 0 {
			c.inOccMask[r*c.maskWords+p>>6] |= 1 << (uint(p) & 63)
		}
		for vc := range in.vcs {
			q := &in.vcs[vc]
			s := &c.inQ[pi*maxVC+vc]
			n := copy(c.inQData[s.off:s.off+s.qcap], q.pkts[q.head:])
			s.head = 0
			s.qlen = int32(n)
			s.occ = int32(q.occ)
		}

		out := &rt.outputs[p]
		c.outP[pi].linkBusy = out.linkBusyUntil
		c.outP[pi].xbarBusy = out.crossbarBusyUntil
		c.outP[pi].relAt = out.releaseAt
		c.outP[pi].relPhits = int32(out.releasePhits)
		c.outP[pi].relVC = int32(out.releaseVC)
		c.outP[pi].occ = int32(out.occ)
		c.outP[pi].qTotal = int32(out.qTotal)
		c.outP[pi].free = int32(out.creditsFree)
		c.outP[pi].rr = int32(out.rr)
		c.outP[pi].rrVC = int32(out.rrVC)
		c.outW[pi].link = out.link
		c.outW[pi].peer = int32(rt.peerOut[p])
		c.outW[pi].peerPort = int32(rt.peerOutPort[p])
		if c.outP[pi].qTotal > 0 {
			c.outOccMask[r*c.maskWords+p>>6] |= 1 << (uint(p) & 63)
		}
		// Returning credits move from the EventLink into the credit ring.
		if el := out.link; el != nil {
			if rt.peerOut[p] < 0 {
				panic(fmt.Sprintf("router %d: output port %d has a link but no peer", r, p))
			}
			c.outW[pi].lat = int32(el.latency)
			head, tail := el.crdHead.Load(), el.crdTail.Load()
			q := &c.crdQ[pi]
			for i := head; i < tail; i++ {
				c.crdData[q.off+q.qlen] = el.crds[i&el.cmask]
				q.qlen++
			}
			if q.qlen > 0 {
				c.crdPendMask[r*c.maskWords+p>>6] |= 1 << (uint(p) & 63)
			}
			el.crdHead.Store(tail)
		}
		for vc := range out.queues {
			s := &c.outQ[pi*maxVC+vc]
			n := copy(c.outQData[s.off:s.off+s.qcap], out.queues[vc][out.qheads[vc]:])
			s.head = 0
			s.qlen = int32(n)
			s.occVC = int32(out.occVC[vc])
			if out.credits != nil {
				s.credits = int32(out.credits[vc])
			}
		}
	}
}

// importDue copies the logical content of a due-queue.
func importDue(dst, src *dueQueue) {
	dst.q = append(dst.q[:0], src.q[src.head:]...)
	dst.head = 0
}

// WriteBack copies the hot state back into the classic per-router
// representation, so post-run introspection (debug snapshots, InFlight,
// a follow-up reference run or manual stepping) sees exactly what the
// core computed. Aliased accumulators (stats, job counters) were never
// copied and need no write-back.
func (c *Core) WriteBack() {
	np, maxVC := c.np, c.maxVC
	for r, rt := range c.routers {
		base := r * np
		exportDue(&rt.relDue, &c.relDue[r])
		exportDue(&rt.xferDue, &c.xferDue[r])
		rt.measuring = c.measuring
		rt.batch = c.batch
		for p := 0; p < np; p++ {
			pi := base + p
			if el := c.inW[pi].link; el != nil {
				q := &c.arrQ[pi]
				h := q.head
				for k := int32(0); k < q.qlen; k++ {
					ev := c.arrData[q.off+h]
					el.PushPacket(ev.at, ev.p)
					if h++; h == q.qcap {
						h = 0
					}
				}
			}
			if el := c.outW[pi].link; el != nil {
				q := &c.crdQ[pi]
				h := q.head
				for k := int32(0); k < q.qlen; k++ {
					ev := c.crdData[q.off+h]
					el.PushCredit(ev.at, int(ev.vc), int(ev.phits))
					if h++; h == q.qcap {
						h = 0
					}
				}
			}
			in := &rt.inputs[p]
			in.busyUntil = c.inP[pi].busy
			in.rrVC = int(c.inP[pi].rrVC)
			in.qTotal = int(c.inP[pi].qTotal)
			pd := c.inP[pi].pend
			in.pending = pendingTransfer{
				active:  pd.active,
				done:    c.inP[pi].busy,
				vcIdx:   int(pd.vc),
				outPort: int(pd.outPort),
				outVC:   int(pd.outVC),
				action:  packet.Action{Kind: pd.kind, Group: int(pd.group)},
			}
			for vc := range in.vcs {
				q := &in.vcs[vc]
				s := &c.inQ[pi*maxVC+vc]
				q.pkts = q.pkts[:0]
				h := s.head
				for k := int32(0); k < s.qlen; k++ {
					q.pkts = append(q.pkts, c.inQData[s.off+h])
					if h++; h == s.qcap {
						h = 0
					}
				}
				q.head = 0
				q.occ = int(s.occ)
			}

			out := &rt.outputs[p]
			out.linkBusyUntil = c.outP[pi].linkBusy
			out.crossbarBusyUntil = c.outP[pi].xbarBusy
			out.releaseAt = c.outP[pi].relAt
			out.releasePhits = int(c.outP[pi].relPhits)
			out.releaseVC = int(c.outP[pi].relVC)
			out.occ = int(c.outP[pi].occ)
			out.qTotal = int(c.outP[pi].qTotal)
			out.creditsFree = int(c.outP[pi].free)
			out.rr = int(c.outP[pi].rr)
			out.rrVC = int(c.outP[pi].rrVC)
			for vc := range out.queues {
				s := &c.outQ[pi*maxVC+vc]
				out.queues[vc] = out.queues[vc][:0]
				h := s.head
				for k := int32(0); k < s.qlen; k++ {
					out.queues[vc] = append(out.queues[vc], c.outQData[s.off+h])
					if h++; h == s.qcap {
						h = 0
					}
				}
				out.qheads[vc] = 0
				out.occVC[vc] = int(s.occVC)
				if out.credits != nil {
					out.credits[vc] = int(s.credits)
				}
			}
		}
	}
}

// exportDue writes the logical content of a due-queue back.
func exportDue(dst, src *dueQueue) {
	dst.q = append(dst.q[:0], src.q[src.head:]...)
	dst.head = 0
}

// SetSink installs the engine event sink of one router: it receives a
// LinkEvent for every future link arrival the router schedules (packets
// sent to a neighbour, credits returned upstream), during StepRouter and
// always with a strictly future cycle. The engine must route each event
// to its destination with PushDue after the cycle's steps and before the
// next cycle's.
func (c *Core) SetSink(r int, fn func(LinkEvent)) { c.notify[r] = fn }

// SetAllSinks installs (or clears, with nil) every router's event sink.
func (c *Core) SetAllSinks(fn func(LinkEvent)) {
	for r := range c.notify {
		c.notify[r] = fn
	}
}

// SetMeasuring switches statistics collection on or off.
func (c *Core) SetMeasuring(on bool) { c.measuring = on }

// SetBatch selects the batch-means span deliveries are attributed to.
func (c *Core) SetBatch(i int) {
	if i < 0 {
		i = 0
	}
	if i >= stats.Batches {
		i = stats.Batches - 1
	}
	c.batch = i
}

// PushDue routes a link event to router r's per-port ring (see
// LinkEvent). Events on one port arrive in increasing-cycle order (the
// sender serialises them), so a plain FIFO ring keeps them sorted for
// free.
func (c *Core) PushDue(r int, ev LinkEvent) {
	if !ev.Credit {
		q := &c.arrQ[r*c.np+ev.Port]
		if q.qlen == q.qcap {
			panic(fmt.Sprintf("router %d: arrival event ring full on port %d (spacing promise broken)", r, ev.Port))
		}
		i := q.head + q.qlen
		if i >= q.qcap {
			i -= q.qcap
		}
		c.arrData[q.off+i] = pktEvent{at: ev.At, p: ev.Pkt}
		q.qlen++
		c.arrPendMask[r*c.maskWords+ev.Port>>6] |= 1 << (uint(ev.Port) & 63)
	} else {
		q := &c.crdQ[r*c.np+ev.Port]
		if q.qlen == q.qcap {
			panic(fmt.Sprintf("router %d: credit event ring full on port %d (spacing promise broken)", r, ev.Port))
		}
		i := q.head + q.qlen
		if i >= q.qcap {
			i -= q.qcap
		}
		c.crdData[q.off+i] = crdEvent{at: ev.At, phits: ev.Phits, vc: ev.PVC}
		q.qlen++
		c.crdPendMask[r*c.maskWords+ev.Port>>6] |= 1 << (uint(ev.Port) & 63)
	}
	if !c.extDirty[r] {
		if m := c.extMin[r]; m < 0 || ev.At < m {
			c.extMin[r] = ev.At
		}
	}
}

// EarliestExternal returns the earliest cycle at which a link event
// already routed to router r falls due — a packet arriving on an input or
// a credit returning to an output — or -1 if none is pending. The
// scheduler consults it when putting the router to sleep, because
// in-flight events are invisible to the router's own state (StepRouter's
// return value covers internal events only). The value is cached: pushes
// fold into it directly, pops invalidate it, and a query after a pop
// rescans the ring heads.
func (c *Core) EarliestExternal(r int) int64 {
	if !c.extDirty[r] {
		return c.extMin[r]
	}
	ev := int64(-1)
	mw := c.maskWords
	base := r * c.np
	for w := 0; w < mw; w++ {
		pb := w << 6
		for m := c.arrPendMask[r*mw+w]; m != 0; m &= m - 1 {
			q := &c.arrQ[base+pb+bits.TrailingZeros64(m)]
			consider(&ev, c.arrData[q.off+q.head].at)
		}
		for m := c.crdPendMask[r*mw+w]; m != 0; m &= m - 1 {
			q := &c.crdQ[base+pb+bits.TrailingZeros64(m)]
			consider(&ev, c.crdData[q.off+q.head].at)
		}
	}
	c.extMin[r] = ev
	c.extDirty[r] = false
	return ev
}

// OutputUsed estimates the phits queued at an output port, including
// downstream phits whose credits have not returned (Router.LinkLoad).
func (c *Core) OutputUsed(r, port int) int {
	pi := r*c.np + port
	return int(c.outP[pi].occ + c.downTotal[port] - c.outP[pi].free)
}

// InFlight counts packets held in buffers and crossbars across all
// routers, plus packets travelling in the in-core arrival rings — those
// left their EventLinks at import, so the network-wide link sum no longer
// sees them (the network-wide sum Router.InFlight contributes to).
func (c *Core) InFlight() int {
	n := 0
	for i := range c.inQ {
		n += int(c.inQ[i].qlen)
	}
	for i := range c.outQ {
		n += int(c.outQ[i].qlen)
	}
	for i := range c.arrQ {
		n += int(c.arrQ[i].qlen)
	}
	return n
}

// InjectionBacklog returns the packets queued at router r's injection
// port of the node with per-router index nodeIdx.
func (c *Core) InjectionBacklog(r, nodeIdx int) int {
	p := c.topo.Params()
	port := p.A - 1 + p.H + nodeIdx
	return int(c.inQ[(r*c.np+port)*c.maxVC].qlen)
}

// NoteBacklogged records a refused generation attempt at router r by
// node src (see Router.NoteBacklogged).
func (c *Core) NoteBacklogged(r, src int) {
	if !c.measuring {
		return
	}
	c.stats[r].Backlogged++
	if c.jobStats[r] != nil {
		if j := c.nodeJob[src]; j >= 0 {
			c.jobStats[r][j].Backlogged++
		}
	}
}

// EnqueueInjection places a freshly generated packet into its node's
// injection queue at router r (see Router.EnqueueInjection).
func (c *Core) EnqueueInjection(r int, now int64, p *packet.Packet) {
	routing.OnArrive(c.env, r, p, false)
	p.ReadyAt = now + c.pipeline
	p.EnqueuedAt = now
	port := c.topo.NodePort(p.Src)
	pi := r*c.np + port
	vi := pi * c.maxVC
	c.inQPush(vi, p)
	c.inQ[vi].occ += int32(p.Size)
	c.inP[pi].qTotal++
	c.inOccMask[r*c.maskWords+port>>6] |= 1 << (uint(port) & 63)
	if c.measuring {
		c.stats[r].Generated++
		if j := c.jobByID(r, p.Job); j != nil {
			j.Generated++
		}
	}
}

// jobByID returns router r's accumulator for a packet-stamped job, or nil.
func (c *Core) jobByID(r int, j int32) *stats.Job {
	if c.jobStats[r] == nil || j < 0 {
		return nil
	}
	return &c.jobStats[r][j]
}

// RouterID implements routing.RouterView.
func (v *coreView) RouterID() int { return int(v.r) }

// OutputCongested implements routing.RouterView.
func (v *coreView) OutputCongested(port, vc int) bool {
	c := v.c
	s := &c.outQ[(int(v.r)*c.np+port)*c.maxVC+vc]
	used := s.occVC
	if cap := c.downCapVC[port]; cap > 0 {
		used += cap - s.credits
	}
	return used > c.threshVC[port]
}

// LinkLoad implements routing.RouterView.
func (v *coreView) LinkLoad(port int) int { return v.c.OutputUsed(int(v.r), port) }

// OutputLinkLatency implements routing.RouterView.
func (v *coreView) OutputLinkLatency(port int) int {
	return int(v.c.outW[int(v.r)*v.c.np+port].lat)
}

// CanAbsorb implements routing.RouterView.
func (v *coreView) CanAbsorb(port, vc int) bool {
	c := v.c
	s := &c.outQ[(int(v.r)*c.np+port)*c.maxVC+vc]
	if s.occVC+int32(c.size) > c.capVC {
		return false
	}
	if c.downCapVC[port] == 0 {
		return true
	}
	return s.credits >= int32(c.size)
}
