package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// bench is the state of one benchmark invocation: the measured units, the
// set-up samples, the operation counts and the digests awaiting their
// golden check.
type bench struct {
	w       workload
	seed    uint64
	seconds float64
	traced  bool
	dir     string // root of scratch, golden cache and trace output
	work    string // this invocation's scratch directory
	small   bool

	tr     *tracer // non-nil in trace mode; traced units pass it on
	t0     time.Time
	setups []float64
	units  []unit

	attempted, failed int
	checks            []check
	metrics           map[string]metric // e2e (untraced) or per-layer (traced)
	layer             map[string]float64
	notes             []string
}

// unit is one completed unit of the workload's fixed work: a run, a grid,
// a served job, a scheduler run.
type unit struct {
	wall, cpu float64
	cycles    int64 // router-cycles simulated (routers × cycles, summed)
	traced    bool
}

// check is one digest produced during the run, compared against its golden
// after measurement.
type check struct {
	key, digest string
	traced      bool
}

func newBench(w workload, seed uint64, seconds float64, traced bool, dir string, small bool) *bench {
	return &bench{
		w: w, seed: seed, seconds: seconds, traced: traced, dir: dir, small: small,
		metrics: map[string]metric{},
		layer:   map[string]float64{},
	}
}

// execute runs the workload, checks its digests and assembles the result.
func (b *bench) execute(goldens goldenSet) (result, error) {
	b.work = filepath.Join(b.dir, "work", fmt.Sprintf("%s-%d", b.w.name, os.Getpid()))
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(b.work)
	if b.traced {
		b.tr = newTracer()
	}
	b.t0 = time.Now()
	if err := b.w.run(b); err != nil {
		return result{}, err
	}
	rss := peakRSSMB() // before the oracle, which may build more state
	if len(b.units) == 0 {
		return result{}, fmt.Errorf("no unit completed")
	}
	if err := b.verify(goldens); err != nil {
		return result{}, err
	}

	var plain, traced []unit
	for _, u := range b.units {
		if u.traced {
			traced = append(traced, u)
		} else {
			plain = append(plain, u)
		}
	}
	if !b.traced {
		var cycles int64
		var wall float64
		walls := make([]float64, len(plain))
		cpus := make([]float64, len(plain))
		for i, u := range plain {
			cycles += u.cycles
			wall += u.wall
			walls[i], cpus[i] = u.wall, u.cpu
		}
		e2e := map[string]float64{
			"setup_s":             median(b.setups),
			"router_cycles_per_s": float64(cycles) / wall,
			"cpu_s":               median(cpus),
			"job_s_p50":           median(walls),
			"peak_rss_mb":         rss,
		}
		for _, d := range endToEndMetrics {
			b.metrics[d.name] = metric{e2e[d.name], d.unit}
		}
		b.note("n: %d units, %d set-ups; unit wall min %.4g s, max %.4g s", len(plain), len(b.setups), quantile(walls, 0), quantile(walls, 1))
	} else {
		b.layer["trace.overhead"] = median(unitWalls(traced))/median(unitWalls(plain)) - 1
		for _, d := range perLayerMetrics {
			b.metrics[d.name] = metric{b.layer[d.name], d.unit}
		}
		for n := range b.layer {
			if _, ok := b.metrics[n]; !ok {
				return result{}, fmt.Errorf("per-layer metric %q is not declared in perLayerMetrics", n)
			}
		}
		path, err := b.tr.write(filepath.Join(b.dir, "trace"), fmt.Sprintf("%s-seed%d", b.w.name, b.seed))
		if err != nil {
			return result{}, err
		}
		b.note("n: %d untraced + %d traced units; %d spans in %s", len(plain), len(traced), b.tr.len(), path)
	}
	return result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	}, nil
}

// more reports whether another unit should start: until the measurement
// time is used up, and in any case until there is one unit (trace mode: one
// untraced and one traced). Before a unit starts it collects the garbage of
// the previous one, so no unit pays for another's heap and the peak RSS is
// that of one unit's state.
func (b *bench) more() bool {
	need := 1
	if b.traced {
		need = 2
	}
	if len(b.units) >= need && time.Since(b.t0).Seconds() >= b.seconds {
		return false
	}
	runtime.GC()
	return true
}

// tracedUnit decides whether the next unit runs traced: every other unit in
// trace mode, so traced and untraced units see the same machine state.
func (b *bench) tracedUnit() *tracer {
	if b.traced && len(b.units)%2 == 1 {
		return b.tr
	}
	return nil
}

// timeSetup runs and times one set-up.
func (b *bench) timeSetup(fn func() error) error {
	start := time.Now()
	if err := fn(); err != nil {
		return err
	}
	b.setups = append(b.setups, time.Since(start).Seconds())
	return nil
}

// measure runs one unit of work, timing its wall and process CPU.
func (b *bench) measure(tr *tracer, fn func() (cycles int64, err error)) error {
	cpu0 := cpuSeconds()
	start := time.Now()
	cycles, err := fn()
	if err != nil {
		return err
	}
	b.units = append(b.units, unit{
		wall:   time.Since(start).Seconds(),
		cpu:    cpuSeconds() - cpu0,
		cycles: cycles,
		traced: tr != nil,
	})
	return nil
}

// op counts one operation and whether it succeeded.
func (b *bench) op(ok bool) {
	b.attempted++
	if !ok {
		b.failed++
	}
}

// digest queues a digest for the golden check.
func (b *bench) digest(key, d string, tr *tracer) {
	b.checks = append(b.checks, check{key: key, digest: d, traced: tr != nil})
}

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

func unitWalls(us []unit) []float64 {
	out := make([]float64, len(us))
	for i, u := range us {
		out[i] = u.wall
	}
	return out
}

// medianOf returns the median of f over us.
func medianOf[T any](us []T, f func(T) float64) float64 {
	xs := make([]float64, len(us))
	for i, u := range us {
		xs[i] = f(u)
	}
	return median(xs)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// cpuSeconds is the process's user + system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set size (Linux reports ru_maxrss
// in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// allocBytes is the cumulative heap allocation of the process.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
