package router

import (
	"fmt"
	"sync/atomic"

	"dragonfly/internal/packet"
)

// EventLink is a unidirectional channel between an output port and the
// input port of a neighbouring router, together with the reverse credit
// channel. Each channel is a small ring of (cycle, payload) events sized by
// the channel's in-flight capacity, not by the latency window.
//
// The sizing argument: an event pushed with arrival cycle `at` lives in the
// queue from the push until it is popped at `at`, i.e. at most
// latency+spacing cycles (packets are pushed at send+serial+latency with
// sends serialised ≥ serial cycles apart; credits at complete+latency with
// completions ≥ crossbar cycles apart). Successive pushes on one channel
// are at least `spacing` cycles apart, so at most
//
//	floor(latency/spacing) + 2
//
// events are ever in flight at once: a handful of entries per channel
// (e.g. 13 packet slots for the Table I global links), which is what makes
// per-link runtime latencies affordable at the h=6 scale.
//
// The serialisation and latency rules guarantee at most one event per
// cycle per channel and strictly increasing arrival cycles per channel,
// and sender and receiver always touch state at least one cycle apart, so
// an EventLink may be shared by two routers stepped concurrently without
// locks: tails are sender-owned, heads receiver-owned, both atomic so the
// opposite side can read them for emptiness/occupancy checks (a
// one-cycle-stale value is harmless: a same-cycle push is never same-cycle
// due, and the capacity check keeps two spare slots of slack). Payloads
// are written before the tail is published and read after the tail is
// observed. Every event MUST be popped at exactly the cycle it was
// scheduled for — a receiver that sleeps through an arrival panics loudly.
// The dense reference engine pops every link every cycle; the scheduler
// engines never pop EventLinks at all — the Core moves in-flight events
// into its own per-port rings at import and back at write-back.
type EventLink struct {
	latency int

	pmask   int64 // packet ring size - 1 (power of two)
	pkts    []pktEvent
	pktHead atomic.Int64
	pktTail atomic.Int64

	cmask   int64 // credit ring size - 1 (power of two)
	crds    []crdEvent
	crdHead atomic.Int64
	crdTail atomic.Int64
}

type pktEvent struct {
	at int64
	p  *packet.Packet
}

type crdEvent struct {
	at    int64
	phits int32
	vc    int32
}

// eventCap returns the ring capacity for a channel with the given minimum
// event spacing: the in-flight bound plus slack for the sender's
// possibly-stale view of the receiver head.
func eventCap(latency, spacing int) int64 {
	if spacing < 1 {
		spacing = 1
	}
	need := latency/spacing + 4
	size := 1
	for size < need {
		size <<= 1
	}
	return int64(size)
}

// NewEventLink builds an event-queue link with the given propagation
// latency. pktSpacing and crdSpacing are the minimum cycles between
// successive pushes on the packet and credit channels — the packet
// serialisation time and the crossbar occupancy under the router model —
// and size the rings. Spacings below 1 are treated as 1 (one event per
// cycle, the hard channel invariant).
func NewEventLink(latency, pktSpacing, crdSpacing int) *EventLink {
	if latency <= 0 {
		panic("router: link latency must be positive")
	}
	pcap := eventCap(latency, pktSpacing)
	ccap := eventCap(latency, crdSpacing)
	return &EventLink{
		latency: latency,
		pmask:   pcap - 1,
		pkts:    make([]pktEvent, pcap),
		cmask:   ccap - 1,
		crds:    make([]crdEvent, ccap),
	}
}

// Latency returns the propagation latency in cycles.
func (l *EventLink) Latency() int { return l.latency }

// PushPacket schedules p to arrive at cycle at. It panics on a full ring
// (the spacing promise of NewEventLink was broken) or on non-increasing
// arrival cycles.
func (l *EventLink) PushPacket(at int64, p *packet.Packet) {
	if l.pkts == nil {
		// Cloned links with no in-flight packets defer the ring to first
		// use (see CloneLinkSlice); the receiver cannot race this write, because it
		// only touches the ring after observing tail > head below.
		l.pkts = make([]pktEvent, l.pmask+1)
	}
	tail := l.pktTail.Load() // sender-owned
	if tail-l.pktHead.Load() > l.pmask {
		panic(fmt.Sprintf("router: event link packet ring full at cycle %d (spacing promise broken)", at))
	}
	if tail != l.pktHead.Load() && l.pkts[(tail-1)&l.pmask].at >= at {
		panic(fmt.Sprintf("router: out-of-order packet push at cycle %d", at))
	}
	l.pkts[tail&l.pmask] = pktEvent{at: at, p: p}
	l.pktTail.Store(tail + 1)
}

// PopPacket returns the packet arriving at cycle at, or nil. It panics
// when the head event's cycle has already passed: the receiver slept
// through an arrival.
func (l *EventLink) PopPacket(at int64) *packet.Packet {
	head := l.pktHead.Load() // receiver-owned
	if head == l.pktTail.Load() {
		return nil
	}
	ev := &l.pkts[head&l.pmask]
	if ev.at > at {
		return nil
	}
	if ev.at < at {
		panic(fmt.Sprintf("router: packet arrival at cycle %d popped at cycle %d (receiver slept through it)", ev.at, at))
	}
	p := ev.p
	ev.p = nil // release the reference for the GC; the slot stays ours until head advances
	l.pktHead.Store(head + 1)
	return p
}

// EarliestPacket returns the arrival cycle of the earliest packet in
// flight, or -1. Only valid between cycles.
func (l *EventLink) EarliestPacket() int64 {
	head := l.pktHead.Load()
	if head == l.pktTail.Load() {
		return -1
	}
	return l.pkts[head&l.pmask].at
}

// PushCredit schedules a credit of phits for vc to arrive upstream at
// cycle at. Panic conditions mirror PushPacket, including the deferred
// ring of an empty clone.
func (l *EventLink) PushCredit(at int64, vc, phits int) {
	if l.crds == nil {
		l.crds = make([]crdEvent, l.cmask+1)
	}
	tail := l.crdTail.Load() // sender-owned
	if tail-l.crdHead.Load() > l.cmask {
		panic(fmt.Sprintf("router: event link credit ring full at cycle %d (spacing promise broken)", at))
	}
	if tail != l.crdHead.Load() && l.crds[(tail-1)&l.cmask].at >= at {
		panic(fmt.Sprintf("router: out-of-order credit push at cycle %d", at))
	}
	l.crds[tail&l.cmask] = crdEvent{at: at, phits: int32(phits), vc: int32(vc)}
	l.crdTail.Store(tail + 1)
}

// PopCredit returns the credit arriving at cycle at, or (0,0), panicking
// on a slept-through arrival like PopPacket.
func (l *EventLink) PopCredit(at int64) (vc, phits int) {
	head := l.crdHead.Load() // receiver-owned
	if head == l.crdTail.Load() {
		return 0, 0
	}
	ev := l.crds[head&l.cmask]
	if ev.at > at {
		return 0, 0
	}
	if ev.at < at {
		panic(fmt.Sprintf("router: credit arrival at cycle %d popped at cycle %d (receiver slept through it)", ev.at, at))
	}
	l.crdHead.Store(head + 1)
	return int(ev.vc), int(ev.phits)
}

// EarliestCredit returns the arrival cycle of the earliest credit in
// flight, or -1. Only valid between cycles.
func (l *EventLink) EarliestCredit() int64 {
	head := l.crdHead.Load()
	if head == l.crdTail.Load() {
		return -1
	}
	return l.crds[head&l.cmask].at
}

// InFlight counts packets currently travelling on the link; O(1).
func (l *EventLink) InFlight() int {
	return int(l.pktTail.Load() - l.pktHead.Load())
}

// cloneInto copies l's in-flight events into c (whose rings are already
// sized like l's), rebased and compacted to head 0.
func (l *EventLink) cloneInto(c *EventLink, rebase int64) {
	head, tail := l.pktHead.Load(), l.pktTail.Load()
	for i := head; i < tail; i++ {
		ev := l.pkts[i&l.pmask]
		c.pkts[(i-head)&c.pmask] = pktEvent{at: ev.at - rebase, p: clonePacket(ev.p, rebase)}
	}
	c.pktTail.Store(tail - head)
	head, tail = l.crdHead.Load(), l.crdTail.Load()
	for i := head; i < tail; i++ {
		ev := l.crds[i&l.cmask]
		ev.at -= rebase
		c.crds[(i-head)&c.cmask] = ev
	}
	c.crdTail.Store(tail - head)
}

// CloneLinkSlice deep-copies a network's link set with event times shifted
// rebase cycles into the past, returning the clones in input order (see
// CloneSpec.PortLinks for rewiring routers to them). Link structs and
// event rings are allocated in bulk slabs — a handful of large
// allocations instead of several per link — and channels with nothing in
// flight get no ring at all (the masks carry the capacity and the first
// push allocates): cloning the all-quiescent link set of a construction
// snapshot allocates the link structs and nothing else, which is what
// makes restoring a snapshot cheap next to rebuilding the network. Only
// valid between cycles (senders and receivers quiescent).
func CloneLinkSlice(links []*EventLink, rebase int64) []*EventLink {
	clones := make([]*EventLink, len(links))
	var pktSlots, crdSlots int
	for _, e := range links {
		if e.pktTail.Load() > e.pktHead.Load() {
			pktSlots += int(e.pmask) + 1
		}
		if e.crdTail.Load() > e.crdHead.Load() {
			crdSlots += int(e.cmask) + 1
		}
	}
	slab := make([]EventLink, len(links))
	pktSlab := make([]pktEvent, pktSlots)
	crdSlab := make([]crdEvent, crdSlots)
	pktSlots, crdSlots = 0, 0
	for i, e := range links {
		c := &slab[i]
		c.latency, c.pmask, c.cmask = e.latency, e.pmask, e.cmask
		if e.pktTail.Load() > e.pktHead.Load() {
			n := int(e.pmask) + 1
			c.pkts = pktSlab[pktSlots : pktSlots+n : pktSlots+n]
			pktSlots += n
		}
		if e.crdTail.Load() > e.crdHead.Load() {
			n := int(e.cmask) + 1
			c.crds = crdSlab[crdSlots : crdSlots+n : crdSlots+n]
			crdSlots += n
		}
		e.cloneInto(c, rebase)
		clones[i] = c
	}
	return clones
}

// CloneLinkSliceInto re-clones src's links over dst, a clone set
// previously produced from the same src (see CloneLinkSlice): links are
// reset and refilled in place — rings kept, the previous run's unpopped
// packet references dropped — so a quiescent re-clone allocates nothing.
// Both link sets must be between cycles.
func CloneLinkSliceInto(src, dst []*EventLink, rebase int64) {
	for i, e := range src {
		c := dst[i]
		// Drop references to the previous run's in-flight packets before
		// the counters are reset.
		head, tail := c.pktHead.Load(), c.pktTail.Load()
		for j := head; j < tail; j++ {
			c.pkts[j&c.pmask].p = nil
		}
		c.latency, c.pmask, c.cmask = e.latency, e.pmask, e.cmask
		c.pktHead.Store(0)
		c.crdHead.Store(0)
		// cloneInto assumes zero heads and stores the tails; a live source
		// channel needs a ring where the template left the clone's nil.
		if e.pktTail.Load() > e.pktHead.Load() && c.pkts == nil {
			c.pkts = make([]pktEvent, e.pmask+1)
		}
		if e.crdTail.Load() > e.crdHead.Load() && c.crds == nil {
			c.crds = make([]crdEvent, e.cmask+1)
		}
		e.cloneInto(c, rebase)
	}
}

// clonePacket deep-copies a queued packet with its clocks rebased.
func clonePacket(p *packet.Packet, rebase int64) *packet.Packet {
	c := *p
	c.Rebase(rebase)
	return &c
}
