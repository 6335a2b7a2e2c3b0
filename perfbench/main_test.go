package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkFile mirrors the parts of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func shortRun(t *testing.T, name string, trace, miscount bool) *result {
	t.Helper()
	w, ok := workloads[name]
	if !ok {
		t.Fatalf("BENCHMARK.json names workload %q, which the benchmark does not define", name)
	}
	cfg := config{workload: name, seed: 7, seconds: 0.4, trace: trace, outDir: t.TempDir(), miscount: miscount}
	res, err := run(cfg, w)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

// TestEveryMetricPrinted runs every workload briefly in both modes and
// checks that each metric BENCHMARK.json names is printed with its unit,
// and nothing else is.
func TestEveryMetricPrinted(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark defines %d", len(bf.Workloads), len(workloads))
	}
	for _, wl := range bf.Workloads {
		for _, mode := range []struct {
			trace   bool
			metrics []metricSpec
		}{{false, bf.EndToEnd}, {true, bf.PerLayer}} {
			res := shortRun(t, wl.Name, mode.trace, false)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl.Name, mode.trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(mode.metrics) {
				t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json lists %d", wl.Name, mode.trace, len(res.Metrics), len(mode.metrics))
			}
			for _, m := range mode.metrics {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not printed", wl.Name, mode.trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s printed in %q, BENCHMARK.json says %q", wl.Name, mode.trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestMiscountFails checks that the correctness check catches a served
// count that differs from the reports sent by one.
func TestMiscountFails(t *testing.T) {
	for _, name := range []string{"pipeline-hd", "serve-continual"} {
		res := shortRun(t, name, false, true)
		if res.Correct || res.Failed < 1 {
			t.Errorf("%s: a wrong expected count passed the check (correct=%v failed=%d)", name, res.Correct, res.Failed)
		}
	}
}
