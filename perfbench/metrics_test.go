package main

import (
	"regexp"
	"testing"
)

// TestMetricsMatchBenchmarkJSON checks that every metric the benchmark
// prints has a valid name and is listed, with its unit, in BENCHMARK.json,
// and that BENCHMARK.json lists nothing the benchmark does not print.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	listed := map[string]string{}
	for _, m := range spec.EndToEnd {
		listed["e2e "+m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		listed["layer "+m.Name] = m.Unit
	}
	printed := map[string]string{}
	for _, m := range endToEnd {
		printed["e2e "+m.Name] = m.Unit
	}
	for _, m := range perLayer {
		printed["layer "+m.Name] = m.Unit
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !valid.MatchString(m.Name) {
			t.Errorf("%s: invalid metric name", m.Name)
		}
	}
	for key, unit := range printed {
		if u, ok := listed[key]; !ok {
			t.Errorf("%s: printed but not listed in BENCHMARK.json", key)
		} else if u != unit {
			t.Errorf("%s: unit %q, BENCHMARK.json says %q", key, unit, u)
		}
	}
	for key := range listed {
		if _, ok := printed[key]; !ok {
			t.Errorf("%s: listed in BENCHMARK.json but never printed", key)
		}
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s: listed in BENCHMARK.json but not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, the benchmark implements %s", names, workloadNames())
	}
}
