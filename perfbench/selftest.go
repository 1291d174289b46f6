package main

import (
	"fmt"
	"math"
	"os"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

// runSelftest checks that BENCHMARK.json names exactly the metrics this
// program reports, then runs every workload briefly in both modes and
// checks that each named metric is present, finite and carries its unit.
func runSelftest(workdir string) error {
	var bf benchmarkFile
	if err := readJSONFile("BENCHMARK.json", &bf); err != nil {
		return fmt.Errorf("read BENCHMARK.json (run from the repository root): %w", err)
	}
	if err := sameMetrics("end_to_end", bf.EndToEnd, endToEnd); err != nil {
		return err
	}
	if err := sameMetrics("per_layer", bf.PerLayer, perLayer); err != nil {
		return err
	}
	if len(bf.Workloads) != len(workloads) {
		return fmt.Errorf("BENCHMARK.json names %d workloads, the program runs %d", len(bf.Workloads), len(workloads))
	}
	for _, wl := range bf.Workloads {
		w, ok := workloads[wl.Name]
		if !ok {
			return fmt.Errorf("BENCHMARK.json workload %q is not implemented", wl.Name)
		}
		for _, traced := range []bool{false, true} {
			res, err := execute(wl.Name, w, runConfig{seed: 7, window: time.Second, setups: 1, workdir: workdir}, traced)
			if err != nil {
				return fmt.Errorf("%s (traced %v): %w", wl.Name, traced, err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				return fmt.Errorf("%s (traced %v): %d metrics, want %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					return fmt.Errorf("%s (traced %v): metric %s missing, non-finite or without unit %q", wl.Name, traced, m.Name, m.Unit)
				}
			}
			if res.Attempted < 1 {
				return fmt.Errorf("%s (traced %v): no job attempted", wl.Name, traced)
			}
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench: selftest passed")
	return nil
}

func sameMetrics(section string, got, want []metric) error {
	if len(got) != len(want) {
		return fmt.Errorf("BENCHMARK.json %s has %d metrics, the program reports %d", section, len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
			return fmt.Errorf("BENCHMARK.json %s[%d] is %s (%s), the program reports %s (%s)",
				section, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
		}
	}
	return nil
}
