package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesReportedMetrics keeps BENCHMARK.json and the
// metrics a run prints in step.
func TestBenchmarkJSONMatchesReportedMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].Name)
		}
	}
	for _, c := range []struct {
		what string
		json []struct{ Name, Unit string }
		code []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", c.what, len(c.json), len(c.code))
		}
		for i, m := range c.json {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), benchmark %s (%s)", c.what, i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}
