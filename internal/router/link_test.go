package router

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"dragonfly/internal/packet"
)

// linkImpls names the link under test for the behavioural tests below.
// Spacing 1 is the worst case for the event links (one event per cycle),
// so the tests also exercise their largest rings.
var linkImpls = []struct {
	name string
	mk   func(latency int) *EventLink
}{
	{"event", func(latency int) *EventLink { return NewEventLink(latency, 1, 1) }},
}

func TestLinkPacketDelivery(t *testing.T) {
	for _, impl := range linkImpls {
		t.Run(impl.name, func(t *testing.T) {
			l := impl.mk(10)
			p := &packet.Packet{ID: 1}
			l.PushPacket(25, p)
			for at := int64(20); at < 25; at++ {
				if got := l.PopPacket(at); got != nil {
					t.Fatalf("packet surfaced early at %d", at)
				}
			}
			if got := l.PopPacket(25); got != p {
				t.Fatal("packet not delivered at its cycle")
			}
			if got := l.PopPacket(25); got != nil {
				t.Fatal("packet delivered twice")
			}
		})
	}
}

func TestLinkCreditDelivery(t *testing.T) {
	for _, impl := range linkImpls {
		t.Run(impl.name, func(t *testing.T) {
			l := impl.mk(10)
			l.PushCredit(17, 2, 8)
			if _, phits := l.PopCredit(16); phits != 0 {
				t.Fatal("credit surfaced early")
			}
			vc, phits := l.PopCredit(17)
			if vc != 2 || phits != 8 {
				t.Fatalf("credit = (%d,%d), want (2,8)", vc, phits)
			}
			if _, phits := l.PopCredit(17); phits != 0 {
				t.Fatal("credit delivered twice")
			}
		})
	}
}

func TestLinkSlotCollisionPanics(t *testing.T) {
	for _, impl := range linkImpls {
		t.Run(impl.name, func(t *testing.T) {
			l := impl.mk(10)
			l.PushPacket(5, &packet.Packet{})
			defer func() {
				if recover() == nil {
					t.Fatal("packet slot collision did not panic")
				}
			}()
			l.PushPacket(5, &packet.Packet{})
		})
	}
}

func TestLinkCreditCollisionPanics(t *testing.T) {
	for _, impl := range linkImpls {
		t.Run(impl.name, func(t *testing.T) {
			l := impl.mk(10)
			l.PushCredit(5, 0, 8)
			defer func() {
				if recover() == nil {
					t.Fatal("credit slot collision did not panic")
				}
			}()
			l.PushCredit(5, 1, 8)
		})
	}
}

func TestLinkRingReuse(t *testing.T) {
	for _, impl := range linkImpls {
		t.Run(impl.name, func(t *testing.T) {
			l := impl.mk(3)
			// Push/pop far more events than the ring size; slots must recycle.
			for i := int64(0); i < 100; i++ {
				l.PushPacket(i+4, &packet.Packet{ID: uint64(i)})
				if i >= 4 {
					p := l.PopPacket(i)
					if p == nil || p.ID != uint64(i-4) {
						t.Fatalf("cycle %d: got %v, want packet %d", i, p, i-4)
					}
				}
			}
		})
	}
}

func TestLinkInFlight(t *testing.T) {
	for _, impl := range linkImpls {
		t.Run(impl.name, func(t *testing.T) {
			l := impl.mk(10)
			if l.InFlight() != 0 {
				t.Fatal("new link not empty")
			}
			l.PushPacket(5, &packet.Packet{})
			l.PushPacket(9, &packet.Packet{})
			if got := l.InFlight(); got != 2 {
				t.Fatalf("InFlight() = %d, want 2", got)
			}
			l.PopPacket(5)
			if got := l.InFlight(); got != 1 {
				t.Fatalf("InFlight() = %d, want 1", got)
			}
		})
	}
}

func TestLinkOutOfOrderPushPanics(t *testing.T) {
	for _, impl := range linkImpls {
		t.Run(impl.name, func(t *testing.T) {
			l := impl.mk(10)
			l.PushPacket(15, &packet.Packet{})
			defer func() {
				if recover() == nil {
					t.Fatal("out-of-order packet push did not panic")
				}
			}()
			l.PushPacket(12, &packet.Packet{})
		})
	}
}

func TestLinkEarliestPending(t *testing.T) {
	for _, impl := range linkImpls {
		t.Run(impl.name, func(t *testing.T) {
			l := impl.mk(10)
			if l.EarliestPacket() != -1 || l.EarliestCredit() != -1 {
				t.Fatal("idle link reports pending events")
			}
			l.PushPacket(12, &packet.Packet{})
			l.PushPacket(20, &packet.Packet{})
			l.PushCredit(15, 1, 8)
			if got := l.EarliestPacket(); got != 12 {
				t.Fatalf("EarliestPacket() = %d, want 12", got)
			}
			if got := l.EarliestCredit(); got != 15 {
				t.Fatalf("EarliestCredit() = %d, want 15", got)
			}
			l.PopPacket(12)
			if got := l.EarliestPacket(); got != 20 {
				t.Fatalf("EarliestPacket() after pop = %d, want 20", got)
			}
			l.PopCredit(15)
			if got := l.EarliestCredit(); got != -1 {
				t.Fatalf("EarliestCredit() after pop = %d, want -1", got)
			}
		})
	}
}

func TestNewLinkRejectsBadLatency(t *testing.T) {
	for _, impl := range linkImpls {
		t.Run(impl.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("zero latency accepted")
				}
			}()
			impl.mk(0)
		})
	}
}

// EventLink-specific guard rails: the compact rings panic loudly when the
// contract that sizes them is broken, instead of corrupting events.

func TestEventLinkOverflowPanics(t *testing.T) {
	l := NewEventLink(4, 4, 4) // capacity: 4/4+4 = 5 -> 8 slots
	defer func() {
		if recover() == nil {
			t.Fatal("ring overflow did not panic")
		}
	}()
	for i := int64(0); i < 64; i++ {
		l.PushPacket(100+i, &packet.Packet{}) // never popped: must overflow
	}
}

func TestEventLinkMissedArrivalPanics(t *testing.T) {
	l := NewEventLink(10, 8, 4)
	l.PushPacket(12, &packet.Packet{})
	defer func() {
		if recover() == nil {
			t.Fatal("slept-through arrival did not panic")
		}
	}()
	l.PopPacket(13) // the receiver slept through cycle 12
}

// Property: any schedule of (time, payload) pushes with unique in-window
// times — pushed in increasing time order, as a serializing sender
// produces them — is delivered exactly at its time.
func TestLinkScheduleProperty(t *testing.T) {
	for _, impl := range linkImpls {
		t.Run(impl.name, func(t *testing.T) {
			f := func(offsets []uint8) bool {
				l := impl.mk(100)
				seen := map[int64]bool{}
				type ev struct {
					at int64
					id uint64
				}
				var evs []ev
				for i, o := range offsets {
					at := int64(o%100) + 1
					if seen[at] {
						continue
					}
					seen[at] = true
					evs = append(evs, ev{at, uint64(i)})
				}
				sort.Slice(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
				for _, e := range evs {
					l.PushPacket(e.at, &packet.Packet{ID: e.id})
				}
				got := map[int64]uint64{}
				for at := int64(0); at <= 101; at++ {
					if p := l.PopPacket(at); p != nil {
						got[at] = p.ID
					}
				}
				if len(got) != len(evs) {
					return false
				}
				for _, e := range evs {
					if got[e.at] != e.id {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Error(err)
			}
		})
	}
}

// Property: an event link driven by a randomized schedule — random
// latency, random loads respecting the sender spacing rule, interleaved
// same-cycle push/pop like the engines produce — delivers exactly the
// pushed (cycle, packet) and (cycle, credit) sequences, in push order.
func TestEventLinkMatchesScheduleRandomized(t *testing.T) {
	type delivery struct {
		at int64
		id uint64
	}
	type creditDel struct {
		at        int64
		vc, phits int
	}
	for trial := 0; trial < 50; trial++ {
		rnd := rand.New(rand.NewSource(int64(1000 + trial)))
		latency := 1 + rnd.Intn(150)
		pktSpacing := 1 + rnd.Intn(8)
		crdSpacing := 1 + rnd.Intn(8)
		l := NewEventLink(latency, pktSpacing, crdSpacing)

		var wantPkts, gotPkts []delivery
		var wantCrds, gotCrds []creditDel
		nextPktSend := int64(0)
		nextCrdSend := int64(0)
		var id uint64
		load := 0.1 + 0.8*rnd.Float64()
		const horizon = 2000
		for now := int64(0); now < horizon; now++ {
			// Receiver side first (the engines pop arrivals before the
			// link stage pushes new ones).
			if p := l.PopPacket(now); p != nil {
				gotPkts = append(gotPkts, delivery{now, p.ID})
			}
			if vc, phits := l.PopCredit(now); phits > 0 {
				gotCrds = append(gotCrds, creditDel{now, vc, phits})
			}
			// Sender side: serialised pushes at the modelled spacing.
			if now >= nextPktSend && rnd.Float64() < load {
				id++
				at := now + int64(pktSpacing) + int64(latency)
				l.PushPacket(at, &packet.Packet{ID: id})
				if at < horizon {
					wantPkts = append(wantPkts, delivery{at, id})
				}
				nextPktSend = now + int64(pktSpacing)
			}
			if now >= nextCrdSend && rnd.Float64() < load {
				vc, phits := rnd.Intn(3), 8
				at := now + int64(latency)
				l.PushCredit(at, vc, phits)
				if at < horizon {
					wantCrds = append(wantCrds, creditDel{at, vc, phits})
				}
				nextCrdSend = now + int64(crdSpacing)
			}
		}
		if len(gotPkts) != len(wantPkts) {
			t.Fatalf("trial %d (lat %d): %d packet deliveries, %d scheduled",
				trial, latency, len(gotPkts), len(wantPkts))
		}
		for i := range wantPkts {
			if gotPkts[i] != wantPkts[i] {
				t.Fatalf("trial %d (lat %d): delivery %d = %+v, scheduled %+v",
					trial, latency, i, gotPkts[i], wantPkts[i])
			}
		}
		if len(gotCrds) != len(wantCrds) {
			t.Fatalf("trial %d (lat %d): %d credit deliveries, %d scheduled",
				trial, latency, len(gotCrds), len(wantCrds))
		}
		for i := range wantCrds {
			if gotCrds[i] != wantCrds[i] {
				t.Fatalf("trial %d (lat %d): credit %d = %+v, scheduled %+v",
					trial, latency, i, gotCrds[i], wantCrds[i])
			}
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.PacketSize = 0 },
		func(c *Config) { c.PipelineCycles = -1 },
		func(c *Config) { c.Speedup = 0 },
		func(c *Config) { c.OutputBufferPhits = 4 },
		func(c *Config) { c.LocalVCPhits = 4 },
		func(c *Config) { c.GlobalVCPhits = 4 },
		func(c *Config) { c.LocalVCs = 0 },
		func(c *Config) { c.GlobalVCs = 0 },
		func(c *Config) { c.LocalLatency = 0 },
		func(c *Config) { c.GlobalLatency = 0 },
		func(c *Config) { c.InjectionQueuePackets = 0 },
		func(c *Config) { c.AllocIterations = 0 },
		func(c *Config) { c.CongestionThreshold = 0 },
		func(c *Config) { c.CongestionThreshold = 1 },
	}
	for i, mut := range mutations {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestConfigDerivedCycles(t *testing.T) {
	c := DefaultConfig()
	if got := c.CrossbarCycles(); got != 4 {
		t.Errorf("CrossbarCycles() = %d, want 4 (8 phits at 2x)", got)
	}
	if got := c.SerialCycles(); got != 8 {
		t.Errorf("SerialCycles() = %d, want 8", got)
	}
	c.Speedup = 3
	if got := c.CrossbarCycles(); got != 3 {
		t.Errorf("CrossbarCycles() at 3x = %d, want ceil(8/3)=3", got)
	}
}

func TestArbitrationString(t *testing.T) {
	for a, want := range map[Arbitration]string{
		RoundRobin:           "round-robin",
		TransitOverInjection: "transit-priority",
		AgeBased:             "age",
	} {
		if a.String() != want {
			t.Errorf("%d.String() = %q, want %q", a, a.String(), want)
		}
	}
	if Arbitration(9).String() == "" {
		t.Error("unknown arbitration String() empty")
	}
}
