package sim

import (
	"runtime"
	"sync/atomic"
	"time"
)

// barrierSpin is how long a waiting party polls the barrier before it
// parks. It covers the typical wait between the parallel engine's phases —
// shard imbalance and the coordinator's serial tail, about 100–200 µs of a
// 2 ms cycle at paper size — so the common handoff never goes through the
// Go scheduler, while a longer wait (a slow probe, a reconfiguration)
// parks and burns no CPU.
const barrierSpin = 250 * time.Microsecond

// barrier is the parallel engine's reusable rendezvous of a fixed set of
// parties (the coordinator is party 0). A waiting party spins on the phase
// epoch, then parks on its own wake channel; the party whose arrival
// completes the phase advances the epoch and wakes only the parked ones.
// Parties spin only when each can hold its own P: with more parties than
// GOMAXPROCS a spinner would burn the P the last arrival needs, so they
// park at once.
type barrier struct {
	parties int32
	spin    bool
	arrived atomic.Int32
	epoch   atomic.Uint32 // phases completed; a bump releases the waiters
	closed  atomic.Bool
	// parked[id] is 1 + the epoch party id parked in, 0 when not parked.
	// Recording the epoch keeps a release that is still scanning from
	// waking a fast party that already parked in the next phase.
	parked []atomic.Uint64
	wake   []chan struct{} // capacity 1: a release never blocks
}

func newBarrier(parties int) *barrier {
	b := &barrier{
		parties: int32(parties),
		spin:    parties <= runtime.GOMAXPROCS(0),
		parked:  make([]atomic.Uint64, parties),
		wake:    make([]chan struct{}, parties),
	}
	for i := range b.wake {
		b.wake[i] = make(chan struct{}, 1)
	}
	return b
}

// wait blocks party id until every party has arrived at the current
// phase and reports true, or reports false if the barrier is closed
// first; once closed, every later call returns false at once.
func (b *barrier) wait(id int) bool {
	// The epoch is read before arriving: the phase cannot complete before
	// this party's own arrival, so e is the epoch of the phase it joins.
	e := b.epoch.Load()
	if b.closed.Load() {
		return false
	}
	if b.arrived.Add(1) == b.parties {
		b.arrived.Store(0)
		b.epoch.Add(1)
		b.release(uint64(e) + 1)
		return true
	}
	if b.spin {
		start := time.Now()
		for i := 1; ; i++ {
			if b.epoch.Load() != e {
				return true
			}
			if b.closed.Load() {
				return false
			}
			if i%256 == 0 && time.Since(start) > barrierSpin {
				break
			}
		}
	}
	// Park. The flag is raised before the epoch and the closed flag are
	// re-read, and release runs after the epoch bump or the close, so
	// either this party sees the change or the releaser sees the flag — a
	// wake is never lost.
	p := uint64(e) + 1
	b.parked[id].Store(p)
	if (b.epoch.Load() != e || b.closed.Load()) && b.parked[id].CompareAndSwap(p, 0) {
		return b.epoch.Load() != e
	}
	<-b.wake[id] // released, or the releaser claimed the flag first
	return b.epoch.Load() != e
}

// release wakes every party parked with value p (0: every parked party).
func (b *barrier) release(p uint64) {
	for i := range b.parked {
		if q := b.parked[i].Load(); q != 0 && (p == 0 || q == p) && b.parked[i].CompareAndSwap(q, 0) {
			b.wake[i] <- struct{}{}
		}
	}
}

// close releases every waiting party with false and makes every later
// wait return false; the engine's workers exit on it.
func (b *barrier) close() {
	b.closed.Store(true)
	b.release(0)
}
