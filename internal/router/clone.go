package router

import (
	"dragonfly/internal/packet"
	"dragonfly/internal/rng"
	"dragonfly/internal/routing"
	"dragonfly/internal/stats"
)

// CloneSpec carries the per-network hooks a cloned router set is rewired
// to. Everything immutable after construction — topology, configuration,
// the routing mechanism — is shared with the source; everything mutable or
// network-owned is replaced.
type CloneSpec struct {
	// Env is the clone network's routing environment (the source routers
	// point at their own network's).
	Env *routing.Env
	// Recycle is the clone network's packet-pool return hook.
	Recycle func(*packet.Packet)
	// NodeJob is the clone network's live node→job map (nil without job
	// attribution); shared read-only by all cloned routers.
	NodeJob []int32
	// PortLinks, with Cloned, rewires the cloned ports by index:
	// PortLinks[k] is the Cloned index of the k-th port's link in
	// router-major, inputs-before-outputs order (-1 for the linkless
	// injection/ejection ports), as produced by PortLinkIndex. Repeated
	// clones of one frozen source (snapshot restores) compute the table
	// once.
	PortLinks []int32
	// Cloned is the cloned link set, in the source network's link order
	// (see CloneLinkSlice).
	Cloned []*EventLink
	// Rebase is subtracted from every absolute cycle held in router state
	// (busy times, calendars, packet clocks), so state captured at cycle
	// Rebase of the source run is valid at cycle 0 of the clone's.
	Rebase int64
}

// CloneRouters deep-copies a network's router set. The clones are fully
// independent of the sources — queued packets included — but share all
// immutable structure, and their per-port state lives in backing arrays
// allocated in bulk across the whole set: cloning a wired network costs a
// few large allocations plus copies, instead of re-running the hundreds of
// thousands of small allocations network construction performs. Engine
// hooks (trace, deliver hook) are reset; scratch buffers
// reallocate lazily on first use.
//
// Must be called between cycles (no engine stepping the sources), with the
// source network's Core state written back (see Core.WriteBack).
func CloneRouters(src []*Router, spec CloneSpec) []*Router {
	return cloneRouters(src, nil, spec)
}

// CloneRoutersInto re-clones src over dst, a router set previously
// produced by CloneRouters from the same source — so every slice has
// exactly the shape the clone needs and is overwritten in place, with no
// allocation beyond live queued packets. Stale state a fresh clone would
// get from zeroed slabs (grant flags, queue heads, dangling packet
// references) is cleared explicitly. The same between-cycles quiescence
// contract as CloneRouters applies to both src and dst.
func CloneRoutersInto(src, dst []*Router, spec CloneSpec) {
	cloneRouters(src, dst, spec)
}

func cloneRouters(src, dst []*Router, spec CloneSpec) []*Router {
	reuse := dst != nil
	var (
		routers  []Router
		rnds     []rng.Source
		ins      []inputPort
		outs     []outputPort
		vcSlab   []vcQueue
		outQSlab [][]*packet.Packet
		intSlab  []int
		grants   []bool
		candSlab [][]candidate
		refSlab  [][]candRef
		workSlab []int
	)
	if !reuse {
		// Count pass: size the shared slabs over the whole router set.
		var totalPorts, totalInVC, totalOutVC, totalCred int
		for _, s := range src {
			totalPorts += len(s.inputs)
			for p := range s.inputs {
				totalInVC += len(s.inputs[p].vcs)
			}
			for p := range s.outputs {
				totalOutVC += len(s.outputs[p].queues)
				totalCred += len(s.outputs[p].credits)
			}
		}
		routers = make([]Router, len(src))
		rnds = make([]rng.Source, len(src))
		ins = make([]inputPort, totalPorts)
		outs = make([]outputPort, totalPorts)
		vcSlab = make([]vcQueue, totalInVC)
		outQSlab = make([][]*packet.Packet, totalOutVC)
		intSlab = make([]int, 2*totalOutVC+totalCred) // qheads, occVC, credits
		grants = make([]bool, totalPorts)
		candSlab = make([][]candidate, totalPorts)
		refSlab = make([][]candRef, totalPorts)
		workSlab = make([]int, 0, 2*totalPorts) // candIn + outTouched capacity
	}
	carveInts := func(n int) []int {
		s := intSlab[:n:n]
		intSlab = intSlab[n:]
		return s
	}
	// linkOf resolves the next port's link to its clone. pk walks the
	// PortLinks table in the same router-major, inputs-before-outputs
	// order PortLinkIndex emits.
	pk := 0
	linkOf := func() *EventLink {
		idx := spec.PortLinks[pk]
		pk++
		if idx < 0 {
			return nil
		}
		return spec.Cloned[idx]
	}
	out := dst
	if !reuse {
		out = make([]*Router, len(src))
	}
	for i, s := range src {
		var d *Router
		var keep Router // reuse: the destination's old struct, for its backing arrays
		if reuse {
			d = dst[i]
			keep = *d
		} else {
			d = &routers[i]
			out[i] = d
		}
		*d = *s // scalars and shared immutables; references fixed below
		if reuse {
			d.rnd = keep.rnd
			*d.rnd = *s.rnd
		} else {
			rnds[i] = *s.rnd
			d.rnd = &rnds[i]
		}
		d.env = spec.Env
		d.recycle = spec.Recycle
		if d.recycle == nil {
			d.recycle = func(*packet.Packet) {}
		}
		d.deliverHook = nil
		d.trace = nil
		d.nev = 0
		d.stats.LastActivity -= spec.Rebase
		d.nodeJob = spec.NodeJob
		if s.jobStats != nil {
			if reuse {
				d.jobStats = append(keep.jobStats[:0], s.jobStats...)
				d.jobLive = append(keep.jobLive[:0], s.jobLive...)
			} else {
				d.jobStats = append([]stats.Job(nil), s.jobStats...)
				d.jobLive = append([]int64(nil), s.jobLive...)
			}
		}
		d.relDue = s.relDue.cloneInto(keep.relDue.q, spec.Rebase)
		d.xferDue = s.xferDue.cloneInto(keep.xferDue.q, spec.Rebase)

		n := len(s.inputs)
		if reuse {
			d.inputs = keep.inputs
			d.outputs = keep.outputs
			d.granted = keep.granted
			clear(d.granted) // fresh slabs are zeroed; reused ones must be
			d.cands = keep.cands
			for j := range d.cands {
				if c := d.cands[j]; c != nil {
					c = c[:cap(c)]
					clear(c) // candidates hold routing requests → packets
					d.cands[j] = c[:0]
				}
			}
			d.outCand = keep.outCand
			for j := range d.outCand {
				if c := d.outCand[j]; c != nil {
					d.outCand[j] = c[:0] // candRef is pointer-free
				}
			}
			d.candIn = keep.candIn[:0]
			d.outTouched = keep.outTouched[:0]
		} else {
			d.inputs = ins[:n:n]
			ins = ins[n:]
			d.outputs = outs[:n:n]
			outs = outs[n:]
			d.granted = grants[:n:n]
			grants = grants[n:]
			d.cands = candSlab[:n:n]
			candSlab = candSlab[n:]
			d.outCand = refSlab[:n:n]
			refSlab = refSlab[n:]
			d.candIn = workSlab[0:0:n]
			workSlab = workSlab[n:n]
			d.outTouched = workSlab[0:0:n]
			workSlab = workSlab[n:n]
		}
		// The peer wiring tables are written only during construction;
		// clones share them with the source (*d = *s above).

		for p := range s.inputs {
			sin, din := &s.inputs[p], &d.inputs[p]
			keepVCs := din.vcs
			*din = *sin
			din.busyUntil -= spec.Rebase
			din.pending.done -= spec.Rebase
			din.link = linkOf()
			if reuse {
				din.vcs = keepVCs
			} else {
				nvc := len(sin.vcs)
				din.vcs = vcSlab[:nvc:nvc]
				vcSlab = vcSlab[nvc:]
			}
			for v := range sin.vcs {
				sq, dq := &sin.vcs[v], &din.vcs[v]
				if reuse {
					// Drop the previous run's queue contents: stale
					// packet references and a possibly nonzero head.
					if dq.pkts != nil {
						full := dq.pkts[:cap(dq.pkts)]
						clear(full)
						dq.pkts = full[:0]
					}
					dq.head = 0
				}
				dq.occ, dq.cap = sq.occ, sq.cap
				if live := sq.len(); live > 0 {
					if reuse && cap(dq.pkts) >= live {
						dq.pkts = dq.pkts[:live]
					} else {
						dq.pkts = make([]*packet.Packet, live)
					}
					for k := 0; k < live; k++ {
						dq.pkts[k] = clonePacket(sq.pkts[sq.head+k], spec.Rebase)
					}
				}
			}
		}
		for p := range s.outputs {
			so, do := &s.outputs[p], &d.outputs[p]
			keepQ, keepQh, keepOcc, keepCr := do.queues, do.qheads, do.occVC, do.credits
			*do = *so
			do.linkBusyUntil -= spec.Rebase
			do.crossbarBusyUntil -= spec.Rebase
			do.releaseAt -= spec.Rebase
			do.link = linkOf()
			nvc := len(so.queues)
			if reuse {
				do.queues, do.qheads, do.occVC = keepQ, keepQh, keepOcc
				clear(do.qheads)
				copy(do.occVC, so.occVC)
				if so.credits != nil {
					do.credits = keepCr
					copy(do.credits, so.credits)
				} else {
					do.credits = nil
				}
			} else {
				do.queues = outQSlab[:nvc:nvc]
				outQSlab = outQSlab[nvc:]
				do.qheads = carveInts(nvc)
				do.occVC = carveInts(nvc)
				copy(do.occVC, so.occVC)
				if so.credits != nil {
					do.credits = carveInts(len(so.credits))
					copy(do.credits, so.credits)
				} else {
					do.credits = nil
				}
			}
			for v := range so.queues {
				live := so.queueLen(v)
				if reuse {
					q := do.queues[v]
					if q != nil {
						q = q[:cap(q)]
						clear(q) // stale packet references
					}
					if live > 0 && len(q) < live {
						q = make([]*packet.Packet, live)
					}
					q = q[:live]
					for k := 0; k < live; k++ {
						q[k] = clonePacket(so.queues[v][so.qheads[v]+k], spec.Rebase)
					}
					do.queues[v] = q
				} else if live > 0 {
					q := make([]*packet.Packet, live)
					for k := 0; k < live; k++ {
						q[k] = clonePacket(so.queues[v][so.qheads[v]+k], spec.Rebase)
					}
					do.queues[v] = q
				}
			}
		}
	}
	return out
}

// PortLinkIndex precomputes the port→link-index table CloneSpec.PortLinks
// consumes: for every port of every router, in router-major,
// inputs-before-outputs order, the index of its link in links (-1 for the
// linkless injection/ejection ports). Computed once per frozen source, it
// is valid for every clone of it (clones keep the link order).
func PortLinkIndex(routers []*Router, links []*EventLink) []int32 {
	idx := make(map[*EventLink]int32, len(links))
	for i, l := range links {
		idx[l] = int32(i)
	}
	at := func(l *EventLink) int32 {
		if l == nil {
			return -1
		}
		return idx[l]
	}
	var n int
	for _, r := range routers {
		n += len(r.inputs) + len(r.outputs)
	}
	out := make([]int32, 0, n)
	for _, r := range routers {
		for p := range r.inputs {
			out = append(out, at(r.inputs[p].link))
		}
		for p := range r.outputs {
			out = append(out, at(r.outputs[p].link))
		}
	}
	return out
}

// cloneInto deep-copies a due-queue compacted to head 0 with entry times
// rebased, reusing buf's capacity when it suffices (portDue is
// pointer-free, so leftover entries past the new length are harmless).
func (d *dueQueue) cloneInto(buf []portDue, rebase int64) dueQueue {
	var c dueQueue
	if n := len(d.q) - d.head; n > 0 {
		if cap(buf) >= n {
			c.q = buf[:n]
		} else {
			c.q = make([]portDue, n)
		}
		for i := 0; i < n; i++ {
			e := d.q[d.head+i]
			e.at -= rebase
			c.q[i] = e
		}
	}
	return c
}
