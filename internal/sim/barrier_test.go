package sim

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dragonfly/internal/packet"
	"dragonfly/internal/router"
)

// exerciseBarrier runs `phases` phases of a barrier of `parties` parties.
// Every party counts itself into each phase before waiting and checks, once
// released, that all parties arrived; party 0 then closes the barrier,
// which must release the others with false.
func exerciseBarrier(t *testing.T, b *barrier, parties, phases int) {
	t.Helper()
	arrived := make([]atomic.Int32, phases)
	runs := make([][]int32, parties) // runs[id][k]: times party id ran phase k
	var wg sync.WaitGroup
	for id := 0; id < parties; id++ {
		runs[id] = make([]int32, phases)
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for k := 0; k < phases; k++ {
				runs[id][k]++
				arrived[k].Add(1)
				if !b.wait(id) {
					t.Errorf("party %d: barrier closed in phase %d", id, k)
					return
				}
				if got := arrived[k].Load(); got != int32(parties) {
					t.Errorf("party %d left phase %d after %d of %d arrivals", id, k, got, parties)
					return
				}
			}
			if id == 0 {
				b.close()
			} else if b.wait(id) {
				t.Errorf("party %d: wait on a closed barrier reported true", id)
			}
		}(id)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("barrier deadlocked")
	}
	for id := range runs {
		for k, n := range runs[id] {
			if n != 1 {
				t.Fatalf("party %d ran phase %d %d times", id, k, n)
			}
		}
	}
}

// With more parties than Ps every wait parks: the park/wake handshake
// alone must carry 10k phases without a lost or premature wake. Under one
// P it runs interleaved; under two, a release can still be scanning the
// parked flags while a fast party parks in the next phase.
func TestBarrierParkPath(t *testing.T) {
	for _, procs := range []int{1, 2} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			b := newBarrier(4)
			if b.spin {
				t.Fatal("barrier spins with more parties than GOMAXPROCS")
			}
			exerciseBarrier(t, b, 4, 10000)
		}()
	}
}

// The engine's configuration: as many parties as Ps, spinning first.
func TestBarrierSpinPath(t *testing.T) {
	parties := min(runtime.GOMAXPROCS(0), 4)
	if parties < 2 {
		t.Skip("needs GOMAXPROCS >= 2")
	}
	b := newBarrier(parties)
	if !b.spin {
		t.Fatal("barrier parks at once with no more parties than GOMAXPROCS")
	}
	exerciseBarrier(t, b, parties, 10000)
}

// Workers are capped at GOMAXPROCS, and the capped run is the
// single-worker run.
func TestWorkersClampedToGOMAXPROCS(t *testing.T) {
	cfg := small()
	cfg.Mechanism = "In-Trns-MM"
	cfg.Pattern = "ADVc"
	cfg.Load = 0.35
	cfg.Workers = 1
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg.Workers = 2
	net, err := NewNetwork(&cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w := clampWorkers(net, &cfg); w != 1 {
		t.Fatalf("Workers 2 under GOMAXPROCS 1 clamped to %d, want 1", w)
	}
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "Workers 2 under GOMAXPROCS 1", want, got)
}

// finishAt stops a run at the end of cycle at.
type finishAt struct{ at int64 }

func (finishAt) NextEvent(int64) int64     { return -1 }
func (finishAt) Apply(*Reconfig, int64)    {}
func (f finishAt) Finished(now int64) bool { return now >= f.at }

// The parallel engine's workers are gone when RunNetwork returns, however
// the run ends: at its horizon, stopped by a Finisher, or on the
// watchdog's error.
func TestParallelEngineLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	settled := func(label string) {
		t.Helper()
		// A worker is counted until its goroutine has fully exited, a
		// moment after the engine stopped waiting for it.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("%s: %d goroutines after the run, %d before", label, n, base)
		}
	}
	cfg := DefaultConfig()
	cfg.Pattern = "ADVc"
	cfg.Load = 0.3
	cfg.WarmupCycles, cfg.MeasureCycles = 100, 300
	total := cfg.WarmupCycles + cfg.MeasureCycles
	build := func() *Network {
		net, err := NewNetwork(&cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return net
	}

	if err := runParallel(build(), cfg.WarmupCycles, total, 2, nil); err != nil {
		t.Fatal(err)
	}
	settled("normal end")

	net := build()
	if err := runParallel(net, cfg.WarmupCycles, total, 2, finishAt{at: 150}); err != nil {
		t.Fatal(err)
	}
	if net.stoppedAt != 151 {
		t.Fatalf("Finisher run stopped at %d, want 151", net.stoppedAt)
	}
	settled("Finisher stop")

	// A packet marooned in a detached link (see
	// TestWatchdogFiresWithSleepingRouters) trips the watchdog.
	idle := cfg
	idle.Load = 0
	idle.WarmupCycles, idle.MeasureCycles = 0, 4*watchdogInterval
	net, err := NewNetwork(&idle, nil)
	if err != nil {
		t.Fatal(err)
	}
	void := router.NewEventLink(idle.Router.LocalLatency, idle.Router.SerialCycles(), idle.Router.CrossbarCycles())
	void.PushPacket(int64(idle.Router.LocalLatency), &packet.Packet{})
	net.Links = append(net.Links, void)
	err = runParallel(net, 0, idle.MeasureCycles, 2, nil)
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("watchdog run: err = %v, want a deadlock error", err)
	}
	settled("watchdog error")
}
