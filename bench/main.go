// Command bench is the repository benchmark. It drives the real code through
// its public Go APIs on four workloads — the paper-scale offline campaign,
// a sparse-engine critical-node scan, open-loop unary prediction through the
// serving stack, and a closed-loop mix of streams, feedback and few-shot
// calibration — checks that every output is correct, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer breakdown recorded
// from spans around each layer call) as one JSON object on the last line.
//
// Run it from the repository root through its wrapper, which builds it from
// source:
//
//	bash bench/run.sh -workload campaign -seed 1 -seconds 20 -trace 0
//
// -agree compares two files of saved runs against the bounds in
// BENCHMARK.json. See bench/README.md for the metrics and workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// processStart stands in for the process's start time: package main's
// variables are initialized before main runs, once the runtime and the
// imported packages are.
var processStart = time.Now()

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// metricDef names one metric of the BENCHMARK.json contract.
type metricDef struct{ name, unit string }

// endToEnd is what a run prints with -trace 0, on every workload. The
// meaning of op_* and rate_per_s per workload is in bench/README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"rate_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// layerShares maps span names to the per-layer metric reporting their self
// time as a share of the traced wall time. A layer a workload never calls
// reads 0%.
var layerShares = []struct{ span, metric string }{
	{"grid.build", "grid.build_pct"},
	{"workload.generate", "workload.generate_pct"},
	{"power.currents", "power.currents_pct"},
	{"pdn.build", "pdn.build_pct"},
	{"pdn.settle", "pdn.settle_pct"},
	{"pdn.step", "pdn.step_pct"},
	{"mat.standardize", "mat.standardize_pct"},
	{"lasso.gram", "lasso.gram_pct"},
	{"lasso.path", "lasso.path_pct"},
	{"lasso.count", "lasso.count_pct"},
	{"ols.refit", "ols.refit_pct"},
	{"core.predict_dataset", "core.predict_dataset_pct"},
	{"eagleeye.place", "eagleeye.place_pct"},
	{"detect.score", "detect.score_pct"},
	{"serve.roundtrip", "serve.http_self_pct"},
	{"serve.decode", "serve.decode_pct"},
	{"registry.get", "registry.get_pct"},
	{"faults.guard", "faults.guard_pct"},
	{"core.predict", "core.predict_pct"},
	{"serve.encode", "serve.encode_pct"},
	{"monitor.process", "monitor.process_pct"},
	{"online.ingest", "online.ingest_pct"},
	{"transfer.align", "transfer.align_pct"},
	{"transfer.delta", "transfer.delta_pct"},
	{"registry.refresh", "registry.refresh_pct"},
}

// layerExtras are the per-layer metrics that are not span shares.
var layerExtras = []metricDef{
	{"experiments.glue_pct", "%"},
	{"pdn.rhs_steps", "count"},
	{"pdn.us_per_rhs_step", "us"},
	{"lasso.path_iters", "count"},
	{"lasso.screen_kept_pct", "%"},
	{"lasso.kkt_resolves", "count"},
	{"lasso.count_solves", "count"},
	{"serve.replayed", "count"},
	{"loadgen.late_pct", "%"},
	{"runtime.alloc_kb_per_op", "KB"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.wall_s", "s"},
	{"trace.coverage_pct", "%"},
	{"trace.overhead_pct", "%"},
}

// perLayer is what a run prints with -trace 1, on every workload.
func perLayer() []metricDef {
	defs := make([]metricDef, 0, len(layerShares)+len(layerExtras))
	for _, l := range layerShares {
		defs = append(defs, metricDef{l.metric, "%"})
	}
	return append(defs, layerExtras...)
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64 // measurement budget
	trace   bool
	work    string // scratch directory inside the checkout
	sc      scale
	ref     *reference
	probe   *probe // sampled between operations; scales the end-to-end timings
}

// outcome is what a workload reports back.
type outcome struct {
	attempted, failed int
	problems          []string // failed correctness checks
	e2e               metrics  // -trace 0
	layer             metrics  // -trace 1
	detail            metrics  // workload-specific figures for the run header
	notes             []string
	tracer            *tracer
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// gate runs one operation's correctness checks and counts the operation as
// failed if any of them reported a problem.
func (o *outcome) gate(checks func()) {
	n := len(o.problems)
	checks()
	if len(o.problems) > n {
		o.failed++
	}
}

// workloads maps workload names to the functions that run them.
var workloads = map[string]func(runConfig) (*outcome, error){
	"campaign":      runCampaign,
	"scan-sparse":   runScan,
	"serve-predict": runServePredict,
	"serve-mixed":   runServeMixed,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: campaign, scan-sparse, serve-predict or serve-mixed")
		seed     = flag.Int64("seed", 1, "seed for the workload inputs")
		seconds  = flag.Float64("seconds", 20, "measurement budget in seconds")
		traceOn  = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		spans    = flag.String("spans", "", "with -trace 1, also write every span to this JSON file")
		agree    = flag.Bool("agree", false, "compare two files of saved runs (positional args) against the BENCHMARK.json bounds")
		writeRef = flag.String("write-reference", "", "regenerate the stored reference outputs at this path and exit")
	)
	flag.Parse()
	if *agree {
		os.Exit(runAgree(flag.Args(), os.Stdout))
	}
	if *writeRef != "" {
		if err := writeReference(*writeRef); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want campaign, scan-sparse, serve-predict or serve-mixed)\n", *workload)
		os.Exit(2)
	}
	if *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	work, err := scratchDir()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	rc := runConfig{seed: *seed, seconds: *seconds, trace: *traceOn == 1, work: work, sc: paperScale(), ref: ref, probe: &probe{}}
	out, err := run(rc)
	os.RemoveAll(work)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if rc.trace && *spans != "" {
		if err := out.tracer.write(*spans); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
	}
	h, res := complete(*workload, rc, out)
	printHuman(h, res)
	hb, _ := json.Marshal(map[string]header{"run": h})
	rb, _ := json.Marshal(res)
	fmt.Printf("%s\n%s\n", hb, rb)
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "bench: %s: check failed: %s\n", *workload, p)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// header precedes the result line: where and how the run was made.
type header struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Trace      int      `json:"trace"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NProc      int      `json:"nproc"`
	Go         string   `json:"go"`
	Commit     string   `json:"commit"`
	Detail     metrics  `json:"detail"`
	Notes      []string `json:"notes,omitempty"`
}

// complete fills in the metrics every run reports and builds the run header
// and the result line.
func complete(workload string, rc runConfig, out *outcome) (header, result) {
	res := result{Attempted: out.attempted, Failed: out.failed}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = max(res.Failed, 1)
		out.fail("no operation completed")
	}
	if rc.trace {
		res.Metrics = out.layer
		for _, d := range perLayer() {
			if _, ok := res.Metrics[d.name]; !ok {
				res.Metrics.set(d.name, d.unit, 0)
			}
		}
	} else {
		res.Metrics = metrics{}
		speed := rc.probe.speed()
		for name, m := range out.e2e {
			out.detail.set("measured_"+name, m.Unit, m.Value)
			switch m.Unit {
			case "s", "ms":
				m.Value *= speed
			case "1/s":
				m.Value /= speed
			}
			res.Metrics[name] = m
		}
		out.detail.set("probe_speed", "ratio", speed)
		out.detail.set("probe_samples", "count", float64(len(rc.probe.times)))
		rss := peakRSSMB()
		res.Metrics.set("peak_rss_mb", "MB", rss)
		out.detail.set("peak_rss_mb", "MB", rss)
	}
	res.Correct = len(out.problems) == 0 && res.Failed == 0
	out.detail.set("fail_frac", "frac", float64(res.Failed)/float64(res.Attempted))
	tr := 0
	if rc.trace {
		tr = 1
	}
	h := header{
		Workload: workload, Seed: rc.seed, Seconds: rc.seconds, Trace: tr,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Go: runtime.Version(), Commit: commit(), Detail: out.detail, Notes: out.notes,
	}
	return h, res
}

// printHuman writes a readable summary to standard error.
func printHuman(h header, res result) {
	fmt.Fprintf(os.Stderr, "bench: %s seed=%d trace=%d gomaxprocs=%d nproc=%d %s commit=%s\n",
		h.Workload, h.Seed, h.Trace, h.GOMAXPROCS, h.NProc, h.Go, h.Commit)
	names := make([]string, 0, len(h.Detail))
	for n := range h.Detail {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-28s %14.6g %s\n", n, h.Detail[n].Value, h.Detail[n].Unit)
	}
	fmt.Fprintf(os.Stderr, "  correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
}

// commit reports the VCS revision stamped into the binary, "unknown" when
// it was built outside a repository.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB, falling back
// to the runtime's total mapped memory where /proc is unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// memDelta samples allocation and GC-pause totals around a measured section.
type memDelta struct {
	alloc, pauseNs uint64
}

func memNow() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{alloc: ms.TotalAlloc, pauseNs: ms.PauseTotalNs}
}

// runtimeMetrics reports allocation per operation and GC pause time since
// before.
func runtimeMetrics(m metrics, before memDelta, ops int) {
	after := memNow()
	m.set("runtime.alloc_kb_per_op", "KB", float64(after.alloc-before.alloc)/1024/float64(max(ops, 1)))
	m.set("runtime.gc_pause_ms", "ms", float64(after.pauseNs-before.pauseNs)/1e6)
}

// layerMetrics reduces a trace to the per-layer share metrics, given the
// traced wall time.
func layerMetrics(m metrics, tr *tracer, wall time.Duration) layerTimes {
	lt := tr.analyze()
	pct := func(d time.Duration) float64 { return 100 * float64(d) / float64(wall) }
	for _, l := range layerShares {
		m.set(l.metric, "%", pct(lt.self[l.span]))
	}
	var glueSelf, glueDur time.Duration
	for name, d := range lt.dur {
		if strings.HasPrefix(name, "experiments.") {
			glueSelf += lt.self[name]
			glueDur += d
		}
	}
	if glueDur > 0 {
		m.set("experiments.glue_pct", "%", 100*float64(glueSelf)/float64(glueDur))
	}
	tr.mu.Lock()
	c := tr.counters
	rhs := c["pdn.rhs_steps"]
	m.set("pdn.rhs_steps", "count", rhs)
	if rhs > 0 {
		m.set("pdn.us_per_rhs_step", "us", float64(lt.self["pdn.step"])/1e3/rhs)
	}
	m.set("lasso.path_iters", "count", c["lasso.path_iters"])
	if n := c["lasso.kept"] + c["lasso.screened"]; n > 0 {
		m.set("lasso.screen_kept_pct", "%", 100*c["lasso.kept"]/n)
	}
	m.set("lasso.kkt_resolves", "count", c["lasso.kkt_resolves"])
	m.set("lasso.count_solves", "count", c["lasso.count_solves"])
	m.set("serve.replayed", "count", c["serve.replayed"])
	tr.mu.Unlock()
	m.set("trace.wall_s", "s", wall.Seconds())
	m.set("trace.coverage_pct", "%", pct(lt.covered))
	return lt
}

// spanDetail adds each span name's total self time to a run header.
func spanDetail(detail metrics, lt layerTimes) {
	for name, d := range lt.self {
		detail.set(name+"_self_s", "s", d.Seconds())
		if n := lt.count[name]; n > 0 {
			detail.set(name+"_self_us_per_call", "us", float64(d)/1e3/float64(n))
		}
	}
}

// finite reports whether v is a finite number.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// scratchDir makes this run's private directory under .bench_build in the
// working directory (the checkout root), the only place a run writes.
func scratchDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", "work-")
}

// storeDir returns a fresh directory for serving artifacts under the run's
// scratch directory.
func storeDir(rc runConfig, name string) (string, error) {
	dir := filepath.Join(rc.work, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}
