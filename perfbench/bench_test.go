package main

import (
	"encoding/json"
	"os"
	"strconv"
	"testing"
)

// The self-test runs every workload at reduced size (--small) in a
// temporary directory. Run it with `go test` from this directory.

// smallRun runs one workload at reduced size and returns the bench and its
// result.
func smallRun(t *testing.T, w workload, dir string, seconds float64, traced bool, goldens goldenSet) (*bench, result) {
	t.Helper()
	b := newBench(w, defaultSeed, seconds, traced, dir, true)
	res, err := b.execute(goldens)
	if err != nil {
		t.Fatalf("%s traced=%v: %v", w.name, traced, err)
	}
	return b, res
}

// deterministicCounters are the per-layer counts that must repeat exactly
// between two runs of the same seed.
var deterministicCounters = []string{
	"sim.router_steps", "routing.nexthop_calls", "traffic.dest_calls",
	"sweep.points_leased", "scheduler.jobs_completed", "scheduler.ran_cycles",
	"scheduler.peak_queue",
}

func TestWorkloadsSmall(t *testing.T) {
	for _, w := range append(append([]workload(nil), workloads...), ungated...) {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			// The first run creates the goldens through the oracle path;
			// correct means every digest, traced and untraced, matched it.
			// It runs long enough for two serve jobs, so the traced runs'
			// job 1 has an untraced twin below.
			plain, res := smallRun(t, w, dir, 2, false, goldenSet{})
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("untraced run: %+v\n%v", res, plain.notes)
			}
			for _, m := range endToEndMetrics {
				if v := res.Metrics[m.name].Value; !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.name, v)
				}
			}

			untraced := map[string]string{}
			for _, c := range plain.checks {
				untraced[c.key] = c.digest
			}
			var counts [2]map[string]float64
			for i := range counts {
				b, res := smallRun(t, w, dir, 0.2, true, goldenSet{})
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("traced run %d: %+v\n%v", i, res, b.notes)
				}
				compared := 0
				for _, c := range b.checks {
					if want, ok := untraced[c.key]; ok && c.traced {
						compared++
						if c.digest != want {
							t.Errorf("%s: traced digest %s != untraced %s", c.key, c.digest, want)
						}
					}
				}
				if compared == 0 {
					t.Errorf("traced run %d: no traced digest had an untraced twin", i)
				}
				if len(res.Metrics) != len(perLayerMetrics) {
					t.Errorf("traced run prints %d metrics, want %d", len(res.Metrics), len(perLayerMetrics))
				}
				counts[i] = map[string]float64{}
				for _, n := range deterministicCounters {
					counts[i][n] = res.Metrics[n].Value
				}
			}
			for _, n := range deterministicCounters {
				if counts[0][n] != counts[1][n] {
					t.Errorf("%s differs between runs: %v vs %v", n, counts[0][n], counts[1][n])
				}
			}
			if counts[0]["routing.nexthop_calls"] == 0 {
				t.Errorf("routing.nexthop_calls = 0: the counting mechanism was not used")
			}

			// A corrupted golden must show up as failed operations.
			bad := goldenSet{w.name + "-small": {strconv.Itoa(defaultSeed): {}}}
			for _, c := range plain.checks {
				bad[w.name+"-small"][strconv.Itoa(defaultSeed)][c.key] = "corrupted"
			}
			_, res = smallRun(t, w, dir, 0.2, false, bad)
			if res.Correct || res.Failed == 0 {
				t.Errorf("corrupted golden not detected: %+v", res)
			}
		})
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists and this
// program's output in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(spec.PerLayer), len(perLayerMetrics))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayerMetrics[i].name || m.Unit != perLayerMetrics[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], program %s [%s]",
				i, m.Name, m.Unit, perLayerMetrics[i].name, perLayerMetrics[i].unit)
		}
	}
	if len(spec.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEndMetrics[i].name || m.Unit != endToEndMetrics[i].unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %s [%s], program %s [%s]",
				i, m.Name, m.Unit, endToEndMetrics[i].name, endToEndMetrics[i].unit)
		}
	}
}

// TestCommittedGoldens checks that every workload has committed goldens for
// the default and the held-out seed.
func TestCommittedGoldens(t *testing.T) {
	for _, w := range append(append([]workload(nil), workloads...), ungated...) {
		for _, seed := range []int{defaultSeed, heldOutSeed} {
			if len(committedGoldens[w.name][strconv.Itoa(seed)]) == 0 {
				t.Errorf("%s: no committed goldens for seed %d", w.name, seed)
			}
		}
	}
}
