package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dragonfly/internal/packet"
	"dragonfly/internal/rng"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
	"dragonfly/internal/traffic"
)

// tracer keeps the spans of a traced run in memory; write saves them once,
// at exit. A nil *tracer records nothing, so untraced units pass nil.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int32
	spans []span
}

// span is one timed call across a layer boundary.
type span struct {
	ID, Parent int32
	Name       string
	Start, End time.Duration // since t0
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span identifier, so children can name a parent that has
// not ended yet.
func (t *tracer) id() int32 {
	if t == nil {
		return 0
	}
	return atomic.AddInt32(&t.next, 1)
}

// add records a finished span.
func (t *tracer) add(id, parent int32, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	t.mu.Unlock()
}

// call runs fn as a span and returns its duration.
func (t *tracer) call(parent int32, name string, fn func()) time.Duration {
	id := t.id()
	start := time.Now()
	fn()
	end := time.Now()
	t.add(id, parent, name, start, end)
	return end.Sub(start)
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write saves the spans as Chrome trace-event JSON (loadable in Perfetto or
// chrome://tracing). Each span goes on the first lane free at its start, so
// no lane holds overlapping slices; args carry the span and parent ids.
func (t *tracer) write(dir, name string) (string, error) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	type event struct {
		Name string           `json:"name"`
		Ph   string           `json:"ph"`
		Ts   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		Pid  int              `json:"pid"`
		Tid  int              `json:"tid"`
		Args map[string]int32 `json:"args"`
	}
	var laneEnd []time.Duration
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		lane := 0
		for lane < len(laneEnd) && laneEnd[lane] > s.Start {
			lane++
		}
		if lane == len(laneEnd) {
			laneEnd = append(laneEnd, 0)
		}
		laneEnd[lane] = s.End
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: lane,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]int32{"id": s.ID, "parent": s.Parent},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".trace.json")
	return path, os.WriteFile(path, data, 0o644)
}

// sampleEvery is the timing rate of fine calls: every call is counted, one
// in sampleEvery is timed (two clock reads, included in its time).
const sampleEvery = 64

// maxRouters sizes the per-router counter slots; it covers the largest
// network any workload builds (Balanced(6): 876 routers).
const maxRouters = 1024

// callCounter counts fine calls per router. Slots are padded to a cache
// line and updated atomically: a router is stepped by one goroutine at a
// time, but restored networks of one snapshot share a mechanism instance
// and may run concurrently.
type callCounter struct {
	slots [maxRouters]struct {
		calls, timed, ns atomic.Int64
		_                [40]byte
	}
}

// timed counts one call of router r and runs fn, timing one call in
// sampleEvery.
func (c *callCounter) timed(r int, fn func()) {
	s := &c.slots[r]
	if s.calls.Add(1)%sampleEvery != 0 {
		fn()
		return
	}
	start := time.Now()
	fn()
	s.ns.Add(int64(time.Since(start)))
	s.timed.Add(1)
}

// callStats is a snapshot of a counter's totals.
type callStats struct {
	calls, timed, ns int64
}

func (c *callCounter) totals() callStats {
	var t callStats
	for i := range c.slots {
		s := &c.slots[i]
		t.calls += s.calls.Load()
		t.timed += s.timed.Load()
		t.ns += s.ns.Load()
	}
	return t
}

func (a callStats) minus(b callStats) callStats {
	return callStats{a.calls - b.calls, a.timed - b.timed, a.ns - b.ns}
}

// nsPerCall is the sampled mean time of one call.
func (a callStats) nsPerCall() float64 {
	if a.timed == 0 {
		return 0
	}
	return float64(a.ns) / float64(a.timed)
}

// selfSeconds estimates the total time spent in the calls.
func (a callStats) selfSeconds() float64 { return a.nsPerCall() * float64(a.calls) / 1e9 }

// nextHops counts routing.Mechanism.NextHop across every traced network.
var nextHops = new(callCounter)

// tracedPrefix names the counting twin of every routing mechanism. The twin
// forwards to the real mechanism and keeps its Name(), so results, curve
// labels and CSVs are those of the untraced run.
const tracedPrefix = "traced-"

func init() {
	for _, name := range routing.Names() {
		routing.Register(tracedPrefix+name, func() routing.Mechanism {
			m, err := routing.ByName(name)
			if err != nil {
				panic(err) // name came from routing.Names
			}
			return countedMech{m}
		})
	}
}

// mechName returns the mechanism name a unit should use: the counting twin
// when it is traced.
func mechName(name string, tr *tracer) string {
	if tr == nil {
		return name
	}
	return tracedPrefix + strings.ToLower(name)
}

func mechNames(names []string, tr *tracer) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = mechName(n, tr)
	}
	return out
}

// countedMech is a routing mechanism whose NextHop calls are counted.
type countedMech struct{ routing.Mechanism }

func (m countedMech) NextHop(env *routing.Env, rv routing.RouterView, p *packet.Packet, in topology.PortClass, rnd *rng.Source) routing.Request {
	var req routing.Request
	nextHops.timed(rv.RouterID(), func() { req = m.Mechanism.NextHop(env, rv, p, in, rnd) })
	return req
}

// countedPattern is a traffic pattern whose Dest calls are counted per
// source router.
type countedPattern struct {
	traffic.Pattern
	c         *callCounter
	perRouter int // nodes per router
}

func (p countedPattern) Dest(src int, rnd *rng.Source) int {
	var d int
	p.c.timed(src/p.perRouter, func() { d = p.Pattern.Dest(src, rnd) })
	return d
}
