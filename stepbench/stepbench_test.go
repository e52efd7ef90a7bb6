package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // reversed: the function must sort
	}
	v, pct, ok := tailPercentile(xs, 10)
	if !ok || v != 90 || pct != 90 {
		t.Fatalf("100 samples: got %v p%v ok=%v, want 90 p90", v, pct, ok)
	}
	above := 0
	for _, x := range xs {
		if x > v {
			above++
		}
	}
	if above != 10 {
		t.Fatalf("%d samples above the tail, want 10", above)
	}

	v, pct, ok = tailPercentile([]float64{5, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11}, 10)
	if !ok || v != 1 || pct != 100.0/11 {
		t.Fatalf("11 samples: got %v p%v ok=%v, want the minimum at p%v", v, pct, ok, 100.0/11)
	}
	if _, _, ok := tailPercentile(make([]float64, 10), 10); ok {
		t.Fatal("10 samples cannot have 10 beyond any of them")
	}
}

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60},   // overlaps a
		{ID: 3, Parent: 1, Name: "a1", Start: 15, End: 20},  // nested in a
		{ID: 4, Parent: 0, Name: "c", Start: 90, End: 120},  // sticks out of root
		{ID: 5, Parent: 0, Name: "b", Start: 200, End: 210}, // outside root
	}
	self := selfTimes(spans)
	want := map[int]int64{
		0: 100 - 50 - 10, // children cover [10,60] and [90,100]
		1: 30 - 5,
		2: 30,
		3: 5,
		4: 30,
		5: 10,
	}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	byName := selfByName(spans)
	if byName["b"] != 40 || byName["root"] != 40 {
		t.Fatalf("by name %v: want b=40 root=40", byName)
	}
	if w := wallByName(spans)["b"]; w != 180 {
		t.Fatalf("wall of b = %d, want 180 (first start to last end)", w)
	}
}

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAreValidAndUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, list := range [][]metricDef{e2eMetrics, accuracyMetrics, layerMetrics} {
		for _, d := range list {
			if !nameRe.MatchString(d.name) {
				t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", d.name)
			}
			if !unitRe.MatchString(d.unit) {
				t.Errorf("metric %s: unit %q is not valid", d.name, d.unit)
			}
			if seen[d.name] {
				t.Errorf("metric %s declared twice", d.name)
			}
			seen[d.name] = true
		}
	}
	for _, w := range workloads {
		if !nameRe.MatchString(w.name) {
			t.Errorf("workload name %q is not valid", w.name)
		}
	}
}

// The benchmark's declaration must list exactly the metrics and workloads
// the program reports.
func TestDeclarationMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d declared, program reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: declared %s [%s], program %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, e2eMetrics)
	check("per_layer", decl.PerLayer, layerMetrics)
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, program has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name {
			t.Errorf("workload %d: declared %s, program %s", i, decl.Workloads[i].Name, w.name)
		}
	}
}

func TestInitialConditionsRepeatForOneSeed(t *testing.T) {
	for _, w := range workloads {
		a := w.initialConditions(2048, 7)
		b := w.initialConditions(2048, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two generations from seed 7 differ", w.name)
		}
		if c := w.initialConditions(2048, 8); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 give identical particles", w.name)
		}
		for i, p := range a {
			if p.ID != int64(i) {
				t.Fatalf("%s: particle %d has ID %d; IDs must be 0..N-1 in order", w.name, i, p.ID)
			}
		}
	}
}
