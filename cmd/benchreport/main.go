// Command benchreport runs the repository's benchmark suite and writes a
// machine-readable summary, including the speedup of each parallel or
// warm-started implementation over its serial/cold baseline. `make bench`
// invokes it to produce BENCH_PR10.json; CI runs the same benchmarks once per
// commit and diffs them against the committed baseline.
//
// Usage:
//
//	go run ./cmd/benchreport [-out BENCH_PR10.json] [-benchtime 100ms] [-bench .] [-count 1] [-cpu 1,2]
//	go run ./cmd/benchreport -compare old.json new.json [-tolerance 0.25]
//	go run ./cmd/benchreport -trajectory [dir]
//
// -count N runs every benchmark N times and reports the median ns/op with
// the min and max beside it. -cpu passes a GOMAXPROCS list through to go
// test: every result records the cpu value it ran at, and each speedup pair
// is computed within one cpu value. A benchmark run at cpu N > 1 is listed
// under go test's own name for it, e.g. BenchmarkStepScanBatch-2.
//
// Compare mode never fails the build: micro-benchmarks on shared CI runners
// are noisy, so regressions beyond the tolerance are reported as warnings
// for a human to read, not as a flaky red X.
//
// Trajectory mode reads every committed BENCH_*.json in the given directory
// (default .) in PR order and prints how each benchmark and speedup pair
// evolved across the PRs that recorded it — the repository's performance
// history at a glance.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// benchPackages is the suite the report covers: the kernel layer, the Eq. 17
// refit and its leave-k-out fallbacks, the solver hot loops (cold and path),
// the banded factor, the transient engine, the experiment pipeline
// (placement sweep + trace collection), the inference server, the online
// recalibration loop (rank-1 update + shadow scoring), and the placement
// criteria (greedy optimal design).
var benchPackages = []string{
	"./internal/mat/",
	"./internal/ols/",
	"./internal/core/",
	"./internal/lasso/",
	"./internal/banded/",
	"./internal/sparse/",
	"./internal/pdn/",
	"./internal/experiments/",
	"./internal/serve/",
	"./internal/online/",
	"./internal/place/",
}

// speedupPairs maps each parallel/blocked/warm-started/factorization-reusing
// /batched/support-sized benchmark, each serving codec and each AVX2 kernel
// to the serial, cold, refit-from-scratch, looped, dense, encoding/json or
// portable Go baseline it is measured against. Names are as reported by
// `go test -bench`, without the -GOMAXPROCS suffix.
var speedupPairs = []struct{ Kernel, Baseline string }{
	{"BenchmarkMul128", "BenchmarkMulSerial128"},
	{"BenchmarkMul256", "BenchmarkMulSerial256"},
	{"BenchmarkMul512", "BenchmarkMulSerial512"},
	{"BenchmarkMulTGram", "BenchmarkMulTGramSerial"},
	{"BenchmarkSolvePathWarm", "BenchmarkSolvePathCold"},
	{"BenchmarkPlacementPathWarm", "BenchmarkPlacementColdPerPoint"},
	{"BenchmarkCollectParallel", "BenchmarkCollectSerial"},
	{"BenchmarkNewSimulator512Sparse", "BenchmarkNewSimulator512Banded"},
	{"BenchmarkSolveBatch", "BenchmarkSolveLooped"},
	{"BenchmarkStepSparse1024Parallel", "BenchmarkStepSparse1024Serial"},
	{"BenchmarkStepBatch512", "BenchmarkStepLooped512"},
	{"BenchmarkPlaceChipReduced", "BenchmarkPlaceChipDense"},
	{"BenchmarkPlaceChipPathReduced", "BenchmarkPlaceChipPathDense"},
	{"BenchmarkDOptSherman", "BenchmarkDOptNaive"},
	{"BenchmarkOLSFit", "BenchmarkOLSFitRowMajor"},
	{"BenchmarkFitFallbacks", "BenchmarkFitFallbacksRefit"},
	{"BenchmarkStepBatch19Banded", "BenchmarkStepLooped19Banded"},
	{"BenchmarkSolveCols19", "BenchmarkSolveCols19Go"},
	{"BenchmarkFistaIterateSupport", "BenchmarkFistaIterateReference"},
	{"BenchmarkFistaIterateSupport", "BenchmarkFistaIterateSupportGo"},
	{"BenchmarkApplyQT", "BenchmarkApplyQTGo"},
	{"BenchmarkSolvePenalized", "BenchmarkSolvePenalizedGo"},
	{"BenchmarkICBatchSweep", "BenchmarkICBatchSweepGo"},
	{"BenchmarkBatchSpMV", "BenchmarkBatchSpMVGo"},
	{"BenchmarkSolveBatchScan", "BenchmarkSolveBatchScanGo"},
	{"BenchmarkStepScanBatch", "BenchmarkStepScanLooped"},
	{"BenchmarkSettleScanBatch", "BenchmarkSettleScanLooped"},
	{"BenchmarkEncodePredict", "BenchmarkEncodePredictStdlib"},
	{"BenchmarkDecodePredict", "BenchmarkDecodePredictStdlib"},
}

// benchResult is one benchmark at one cpu value. With -count N the values
// are medians over the N runs, and ns_per_op_min/max give the spread.
// Reports written before -count and -cpu existed carry none of cpu, runs,
// min or max: they were recorded at the report's gomaxprocs.
type benchResult struct {
	Name        string  `json:"name"`
	Package     string  `json:"package"`
	CPU         int     `json:"cpu,omitempty"`
	Runs        int     `json:"runs,omitempty"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	NsPerOpMin  float64 `json:"ns_per_op_min,omitempty"`
	NsPerOpMax  float64 `json:"ns_per_op_max,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// label names the result as go test does: the benchmark name, with a -N
// suffix when it ran at cpu N > 1.
func (r benchResult) label() string { return cpuLabel(r.Name, r.CPU) }

func cpuLabel(name string, cpu int) string {
	if cpu > 1 {
		return fmt.Sprintf("%s-%d", name, cpu)
	}
	return name
}

type speedup struct {
	Kernel     string  `json:"kernel"`
	Baseline   string  `json:"baseline"`
	CPU        int     `json:"cpu,omitempty"`
	KernelNs   float64 `json:"kernel_ns_per_op"`
	BaselineNs float64 `json:"baseline_ns_per_op"`
	Speedup    float64 `json:"speedup"`
}

type report struct {
	GeneratedAt string        `json:"generated_at"`
	GoVersion   string        `json:"go_version"`
	GOMAXPROCS  int           `json:"gomaxprocs"`
	BenchTime   string        `json:"benchtime"`
	Count       int           `json:"count,omitempty"`
	CPU         string        `json:"cpu,omitempty"`
	Benchmarks  []benchResult `json:"benchmarks"`
	Speedups    []speedup     `json:"speedups"`
}

func main() {
	out := flag.String("out", "BENCH_PR10.json", "output JSON path")
	benchTime := flag.String("benchtime", "100ms", "go test -benchtime value")
	pattern := flag.String("bench", ".", "go test -bench pattern")
	compareWith := flag.String("compare", "", "baseline report JSON; compare the report named by the positional argument against it instead of running benchmarks")
	tolerance := flag.Float64("tolerance", 0.25, "relative ns/op drift tolerated in -compare mode before a benchmark is flagged")
	trajectory := flag.Bool("trajectory", false, "summarize every committed BENCH_*.json (in the optional positional dir) across PRs instead of running benchmarks")
	count := flag.Int("count", 1, "runs per benchmark; the report gives the median ns/op with its min and max")
	cpu := flag.String("cpu", "", "go test -cpu list, e.g. 1,2 (default: go test's, the current GOMAXPROCS)")
	flag.Parse()
	if *count < 1 {
		fmt.Fprintf(os.Stderr, "benchreport: -count must be >= 1, got %d\n", *count)
		os.Exit(2)
	}

	if *trajectory {
		dir := "."
		if flag.NArg() > 0 {
			dir = flag.Arg(0)
		}
		if err := trajectoryReport(dir); err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *compareWith != "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "benchreport: -compare needs exactly one positional argument (the new report)")
			os.Exit(2)
		}
		if err := compareReports(*compareWith, flag.Arg(0), *tolerance); err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
			os.Exit(1)
		}
		return
	}

	rep := report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		BenchTime:   *benchTime,
		Count:       *count,
		CPU:         *cpu,
	}
	for _, pkg := range benchPackages {
		results, err := runPackage(pkg, *pattern, *benchTime, *count, *cpu)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %s: %v\n", pkg, err)
			os.Exit(1)
		}
		rep.Benchmarks = append(rep.Benchmarks, results...)
	}

	byLabel := make(map[string]benchResult, len(rep.Benchmarks))
	var cpus []int
	for _, r := range rep.Benchmarks {
		byLabel[r.label()] = r
		if !slices.Contains(cpus, r.CPU) {
			cpus = append(cpus, r.CPU)
		}
	}
	for _, c := range cpus {
		for _, p := range speedupPairs {
			k, okK := byLabel[cpuLabel(p.Kernel, c)]
			b, okB := byLabel[cpuLabel(p.Baseline, c)]
			if !okK || !okB || k.NsPerOp == 0 {
				continue
			}
			rep.Speedups = append(rep.Speedups, speedup{
				Kernel:     p.Kernel,
				Baseline:   p.Baseline,
				CPU:        c,
				KernelNs:   k.NsPerOp,
				BaselineNs: b.NsPerOp,
				Speedup:    b.NsPerOp / k.NsPerOp,
			})
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s: %d benchmarks, %d speedup pairs\n", *out, len(rep.Benchmarks), len(rep.Speedups))
	for _, s := range rep.Speedups {
		fmt.Printf("  %-24s %.2fx over %s at cpu %d\n", strings.TrimPrefix(s.Kernel, "Benchmark"), s.Speedup, strings.TrimPrefix(s.Baseline, "Benchmark"), s.CPU)
	}
}

// compareReports diffs two benchreport JSON files by benchmark name and
// prints every benchmark whose ns/op drifted beyond tol in either direction.
// It is warn-only by design — shared runners make micro-benchmark timings
// noisy, so the exit status reflects only whether the comparison itself ran.
func compareReports(oldPath, newPath string, tol float64) error {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		return err
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		return err
	}
	// A result without a cpu value (a report from before -cpu) is the
	// baseline of its benchmark at every cpu value; one with a cpu value
	// only of the same benchmark at the same cpu.
	oldBy := make(map[string]benchResult, len(oldRep.Benchmarks))
	for _, r := range oldRep.Benchmarks {
		oldBy[r.label()] = r
	}
	var slower, faster, missing int
	fmt.Printf("comparing %s (new) against %s (baseline), tolerance ±%.0f%%\n", newPath, oldPath, 100*tol)
	for _, nr := range newRep.Benchmarks {
		or, ok := oldBy[nr.label()]
		if !ok {
			or, ok = oldBy[nr.Name]
			ok = ok && or.CPU == 0
		}
		if !ok || or.NsPerOp == 0 {
			missing++
			continue
		}
		ratio := nr.NsPerOp / or.NsPerOp
		switch {
		case ratio > 1+tol:
			slower++
			fmt.Printf("  WARN %-36s %12.0f -> %12.0f ns/op (%.2fx slower)\n", nr.label(), or.NsPerOp, nr.NsPerOp, ratio)
		case ratio < 1-tol:
			faster++
			fmt.Printf("  ok   %-36s %12.0f -> %12.0f ns/op (%.2fx faster)\n", nr.label(), or.NsPerOp, nr.NsPerOp, 1/ratio)
		}
	}
	fmt.Printf("%d benchmarks compared: %d slower beyond tolerance, %d faster, %d without baseline\n",
		len(newRep.Benchmarks), slower, faster, missing)
	if slower > 0 {
		fmt.Println("regressions are warn-only; investigate before trusting or updating the committed baseline")
	}
	return nil
}

// trajectoryReport reads every BENCH_*.json in dir in lexical (= PR) order
// and prints, per benchmark and per speedup pair, the trail of values across
// the PRs that recorded it. Benchmarks appear in the order the newest report
// lists them; ones absent from the newest report (retired benchmarks) are
// skipped — the trajectory is about where the suite is now and how it got
// there.
func trajectoryReport(dir string) error {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no BENCH_*.json files under %s", dir)
	}
	sort.Strings(paths)
	type entry struct {
		label string
		rep   *report
	}
	var reports []entry
	for _, p := range paths {
		rep, err := loadReport(p)
		if err != nil {
			return err
		}
		label := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(p), "BENCH_"), ".json")
		reports = append(reports, entry{label, rep})
	}

	fmt.Printf("benchmark trajectory across %d reports\n\n", len(reports))
	fmt.Printf("%-8s %-12s %-10s %11s %13s\n", "report", "generated", "go", "benchmarks", "speedup pairs")
	for _, e := range reports {
		date := e.rep.GeneratedAt
		if len(date) >= 10 {
			date = date[:10]
		}
		fmt.Printf("%-8s %-12s %-10s %11d %13d\n", e.label, date, e.rep.GoVersion, len(e.rep.Benchmarks), len(e.rep.Speedups))
	}

	newest := reports[len(reports)-1].rep
	byReport := make([]map[string]benchResult, len(reports))
	for i, e := range reports {
		byReport[i] = make(map[string]benchResult, len(e.rep.Benchmarks))
		for _, r := range e.rep.Benchmarks {
			byReport[i][r.label()] = r
		}
	}
	fmt.Printf("\n%-40s", "benchmark (ns/op)")
	for _, e := range reports {
		fmt.Printf(" %12s", e.label)
	}
	fmt.Println()
	for _, r := range newest.Benchmarks {
		fmt.Printf("%-40s", r.label())
		var first, last float64
		for i := range reports {
			if br, ok := byReport[i][r.label()]; ok {
				fmt.Printf(" %12.0f", br.NsPerOp)
				if first == 0 {
					first = br.NsPerOp
				}
				last = br.NsPerOp
			} else {
				fmt.Printf(" %12s", "-")
			}
		}
		if first > 0 && last > 0 && first != last {
			fmt.Printf("  (%.2fx %s)", max2(first/last, last/first), trend(first, last))
		}
		fmt.Println()
	}

	fmt.Printf("\n%-56s", "speedup pair")
	for _, e := range reports {
		fmt.Printf(" %8s", e.label)
	}
	fmt.Println()
	seen := map[string]bool{}
	for i := len(reports) - 1; i >= 0; i-- {
		for _, s := range reports[i].rep.Speedups {
			key := cpuLabel(s.Kernel, s.CPU) + "/" + s.Baseline
			if seen[key] {
				continue
			}
			seen[key] = true
			fmt.Printf("%-56s", strings.TrimPrefix(cpuLabel(s.Kernel, s.CPU), "Benchmark")+" vs "+strings.TrimPrefix(s.Baseline, "Benchmark"))
			for j := range reports {
				val := "-"
				for _, sj := range reports[j].rep.Speedups {
					if sj.Kernel == s.Kernel && sj.Baseline == s.Baseline && max(sj.CPU, 1) == max(s.CPU, 1) {
						val = fmt.Sprintf("%.2fx", sj.Speedup)
						break
					}
				}
				fmt.Printf(" %8s", val)
			}
			fmt.Println()
		}
	}
	return nil
}

func max2(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func trend(first, last float64) string {
	if last < first {
		return "faster"
	}
	return "slower"
}

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// runPackage runs one package's benchmarks count times, at each cpu value
// when cpu is set, parses the textual results and folds each benchmark's
// runs at one cpu value into one result.
func runPackage(pkg, pattern, benchTime string, count int, cpu string) ([]benchResult, error) {
	// -timeout 0: the suite's cost is bounded by -benchtime per benchmark,
	// and the 10⁶-node transient fixtures alone exceed go test's default
	// 10-minute package budget.
	args := []string{"test", "-run", "^$", "-timeout", "0",
		"-bench", pattern, "-benchmem", "-benchtime", benchTime, "-count", strconv.Itoa(count)}
	if cpu != "" {
		args = append(args, "-cpu", cpu)
	}
	cmd := exec.Command("go", append(args, pkg)...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var results []benchResult
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		if r, ok := parseBenchLine(pkg, line); ok {
			results = append(results, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("go test: %w", err)
	}
	return foldRuns(results), nil
}

// foldRuns merges the runs of each benchmark at each cpu value, in order of
// first appearance: the median of every value, and the min and max ns/op.
func foldRuns(runs []benchResult) []benchResult {
	var order []string
	byLabel := map[string][]benchResult{}
	for _, r := range runs {
		if _, ok := byLabel[r.label()]; !ok {
			order = append(order, r.label())
		}
		byLabel[r.label()] = append(byLabel[r.label()], r)
	}
	out := make([]benchResult, 0, len(order))
	for _, l := range order {
		rs := byLabel[l]
		field := func(get func(benchResult) float64) []float64 {
			vs := make([]float64, len(rs))
			for i, r := range rs {
				vs[i] = get(r)
			}
			sort.Float64s(vs)
			return vs
		}
		ns := field(func(r benchResult) float64 { return r.NsPerOp })
		out = append(out, benchResult{
			Name: rs[0].Name, Package: rs[0].Package, CPU: rs[0].CPU, Runs: len(rs),
			Iterations:  int64(median(field(func(r benchResult) float64 { return float64(r.Iterations) }))),
			NsPerOp:     median(ns),
			NsPerOpMin:  ns[0],
			NsPerOpMax:  ns[len(ns)-1],
			BytesPerOp:  median(field(func(r benchResult) float64 { return r.BytesPerOp })),
			AllocsPerOp: median(field(func(r benchResult) float64 { return r.AllocsPerOp })),
		})
	}
	return out
}

// median returns the middle of sorted vs, or the mean of the middle two.
func median(vs []float64) float64 {
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// parseBenchLine decodes one `go test -bench` result line, e.g.
//
//	BenchmarkMul128-4   2212   533776 ns/op   131072 B/op   1 allocs/op
//
// into a result at cpu 4.
func parseBenchLine(pkg, line string) (benchResult, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return benchResult{}, false
	}
	// go test appends -GOMAXPROCS to the name unless it is 1.
	name, cpu := fields[0], 1
	if i := strings.LastIndex(name, "-"); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil && n > 0 {
			name, cpu = name[:i], n
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return benchResult{}, false
	}
	r := benchResult{Name: name, Package: strings.Trim(pkg, "./"), CPU: cpu, Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		}
	}
	if r.NsPerOp == 0 {
		return benchResult{}, false
	}
	return r, true
}
