package main

import "testing"

func TestParseBenchLineCPU(t *testing.T) {
	for _, tc := range []struct {
		line string
		name string
		cpu  int
	}{
		{"BenchmarkStepScanBatch     \t      10\t 129991907 ns/op\t       0 B/op\t       0 allocs/op", "BenchmarkStepScanBatch", 1},
		{"BenchmarkStepScanBatch-2   \t      10\t 112114316 ns/op\t       0 B/op\t       0 allocs/op", "BenchmarkStepScanBatch", 2},
		{"BenchmarkMul128-16   2212   533776 ns/op   131072 B/op   1 allocs/op", "BenchmarkMul128", 16},
	} {
		r, ok := parseBenchLine("./internal/pdn/", tc.line)
		if !ok {
			t.Fatalf("%q: not parsed", tc.line)
		}
		if r.Name != tc.name || r.CPU != tc.cpu || r.Package != "internal/pdn" {
			t.Fatalf("%q: name %q cpu %d package %q, want %q cpu %d", tc.line, r.Name, r.CPU, r.Package, tc.name, tc.cpu)
		}
	}
}

func TestFoldRunsMedianMinMax(t *testing.T) {
	run := func(name string, cpu int, ns float64) benchResult {
		return benchResult{Name: name, Package: "p", CPU: cpu, Iterations: 10, NsPerOp: ns}
	}
	got := foldRuns([]benchResult{
		run("BenchmarkA", 1, 30), run("BenchmarkA", 1, 10), run("BenchmarkA", 1, 20),
		run("BenchmarkA", 2, 8), run("BenchmarkA", 2, 6),
		run("BenchmarkB", 1, 5),
	})
	want := []struct {
		label       string
		runs        int
		med, lo, hi float64
	}{
		{"BenchmarkA", 3, 20, 10, 30},
		{"BenchmarkA-2", 2, 7, 6, 8},
		{"BenchmarkB", 1, 5, 5, 5},
	}
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		g := got[i]
		if g.label() != w.label || g.Runs != w.runs || g.NsPerOp != w.med || g.NsPerOpMin != w.lo || g.NsPerOpMax != w.hi {
			t.Fatalf("result %d: %+v, want %s runs %d median %v min %v max %v", i, g, w.label, w.runs, w.med, w.lo, w.hi)
		}
	}
}
