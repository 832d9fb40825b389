// Command voltmap regenerates the tables and figures of "A Statistical
// Methodology for Noise Sensor Placement and Full-Chip Voltage Map
// Generation" (DAC 2015) on the voltsense substrate.
//
// Usage:
//
//	voltmap [flags] <experiment>
//
// Experiments:
//
//	table1   λ sweep: sensors per core vs aggregated relative error
//	table2   per-benchmark ME/WAE/TE, Eagle-Eye vs proposed
//	fig1     group norms ‖β_m‖₂ for every candidate in core 0
//	fig2     predicted vs real voltage trace at one critical node
//	fig3     sensor locations, Eagle-Eye vs proposed, one core
//	fig4     error rates vs total sensor count for one benchmark
//	map      full-chip voltage map reconstruction demo (ASCII)
//	all      everything above in order
//
// Extensions beyond the paper's figures:
//
//	correlation  |corr| between candidates and critical nodes vs distance
//	perblock     Table 2 rates re-scored at (sample, block) granularity
//	ablations    GL-direct vs refit, OLS-magnitude, plain lasso, FA sensors
//	robustness   detection quality vs ADC resolution and sensor noise
//	variation    deploy the design-time model on a process-varied die
//	closedloop   alarms throttle the cores; emergencies drop (the payoff)
//	loo          leave-one-benchmark-out workload generalization
//	faults       detection quality with failed sensors: naive vs fallback
//	adapt        online recalibration under grid drift: static vs adapted
//	rank         chip-joint placement, dense vs reduced-basis: rank/accuracy/time
//	shootout     every placement criterion + mixed sensor classes, ranked on TE
//	transfer     fleet few-shot calibration: golden prior vs aligned vs scratch
//
// Flags select the pipeline scale (-full for the paper-scale run), CSV
// output, sensor budgets and benchmark choice; see -help.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"voltsense/internal/detect"
	"voltsense/internal/experiments"
	"voltsense/internal/online"
	"voltsense/internal/pdn"
	"voltsense/internal/place"
	"voltsense/internal/profiling"
	"voltsense/internal/transfer"
	"voltsense/internal/vmap"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "voltmap:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("voltmap", flag.ContinueOnError)
	full := fs.Bool("full", false, "use the paper-scale pipeline (minutes) instead of the quick one (seconds)")
	csv := fs.Bool("csv", false, "emit CSV data instead of rendered text where available")
	sensors := fs.Int("sensors", 2, "sensors per core for table2")
	benchIdx := fs.Int("bench", -1, "benchmark index for fig2/fig4 (-1 = auto: most emergencies)")
	block := fs.Int("block", 14, "block ID for fig2 (default 14 = core 0 alu0)")
	steps := fs.Int("steps", 200, "trace length for fig2")
	lambdaList := fs.String("lambdas", "", "comma-separated λ sweep for table1 (default: config sweep)")
	seed := fs.Int64("seed", 1, "pipeline master seed")
	useUarch := fs.Bool("uarch", false, "drive the grid from the microarchitectural performance model instead of the phase generator")
	useThermal := fs.Bool("thermal", false, "couple average power to temperature and scale leakage (hotter blocks leak more)")
	budget := fs.Int("budget", 2, "fallback budget (max simultaneous failed sensors) for faults")
	backend := fs.String("backend", "", "transient solver backend: auto (default), banded, or sparse")
	sparseWorkers := fs.Int("sparse-workers", 0, "worker shares per sparse solve (0 = pool default, 1 = serial); results are bitwise identical either way")
	batch := fs.String("batch", "auto", "multi-RHS trace collection: auto (batch when sparse), on, or off")
	rankLambda := fs.Float64("ranklambda", 12, "chip-joint λ for the rank experiment")
	shootQ := fs.Int("shootq", 8, "chip-wide sensor count for the shootout experiment")
	criteria := fs.String("criteria", "", "comma-separated criterion subset for shootout (default: all)")
	shootBudget := fs.Float64("shootbudget", 0, "mixed-class cost budget for shootout (0 = shootq reference sensors' worth)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile := fs.String("memprofile", "", "write a heap profile to this path on exit")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: voltmap [flags] <table1|table2|fig1|fig2|fig3|fig4|map|all|correlation|perblock|ablations|robustness|variation|closedloop|loo|faults|adapt|rank|shootout|transfer>\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("expected exactly one experiment, got %d args", fs.NArg())
	}
	stopProf, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "voltmap: profiling:", err)
		}
	}()
	exp := fs.Arg(0)
	if !knownExperiments[exp] {
		fs.Usage()
		return fmt.Errorf("unknown experiment %q", exp)
	}

	cfg := experiments.QuickConfig()
	if *full {
		cfg = experiments.DefaultConfig()
	}
	cfg.Seed = *seed
	if *useUarch {
		cfg.TraceSource = experiments.TraceUarch
	}
	cfg.ThermalFeedback = *useThermal
	be, err := pdn.ParseBackend(*backend)
	if err != nil {
		return err
	}
	cfg.Backend = be
	if *sparseWorkers < 0 {
		return fmt.Errorf("-sparse-workers must be >= 0, got %d", *sparseWorkers)
	}
	cfg.SparseWorkers = *sparseWorkers
	switch *batch {
	case "auto":
		cfg.BatchTraces = experiments.BatchAuto
	case "on":
		cfg.BatchTraces = experiments.BatchOn
	case "off":
		cfg.BatchTraces = experiments.BatchOff
	default:
		return fmt.Errorf("unknown -batch mode %q (want auto, on, or off)", *batch)
	}

	fmt.Fprintf(os.Stderr, "building pipeline (%s scale)...\n", scaleName(*full))
	p, err := experiments.New(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "pipeline ready: %d candidates, %d blocks, emergency fraction %.2f\n",
		len(p.Grid.Candidates), p.Chip.NumBlocks(), p.EmergencyFraction(p.TestAll()))

	var lambdas []float64
	if *lambdaList != "" {
		for _, tok := range strings.Split(*lambdaList, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
			if err != nil {
				return fmt.Errorf("bad -lambdas entry %q: %v", tok, err)
			}
			lambdas = append(lambdas, v)
		}
	}

	bench := *benchIdx
	if bench < 0 {
		bench = p.BusiestBenchmark()
	}

	dispatch := map[string]func() error{
		"table1":      func() error { return doTable1(p, lambdas, *csv) },
		"table2":      func() error { return doTable2(p, *sensors, *csv) },
		"fig1":        func() error { return doFig1(p, *csv) },
		"fig2":        func() error { return doFig2(p, bench, *block, *steps, *csv) },
		"fig3":        func() error { return doFig3(p) },
		"fig4":        func() error { return doFig4(p, bench, *csv) },
		"map":         func() error { return doMap(p) },
		"correlation": func() error { return doCorrelation(p, *csv) },
		"perblock":    func() error { return doPerBlock(p, *sensors) },
		"ablations":   func() error { return doAblations(p) },
		"robustness":  func() error { return doRobustness(p, *sensors) },
		"variation":   func() error { return doVariation(p, *sensors) },
		"closedloop":  func() error { return doClosedLoop(p, bench, *sensors) },
		"loo":         func() error { return doLOO(p, *sensors) },
		"faults":      func() error { return doFaults(p, *sensors, *budget, *csv) },
		"adapt":       func() error { return doAdapt(p, *sensors, *csv) },
		"rank":        func() error { return doRank(p, *rankLambda, *csv) },
		"shootout":    func() error { return doShootout(p, *shootQ, *criteria, *shootBudget, *csv) },
		"transfer":    func() error { return doTransfer(p, *sensors, *csv) },
	}
	if exp == "all" {
		for _, name := range []string{"fig1", "table1", "fig2", "fig3", "table2", "fig4", "map"} {
			fmt.Printf("==== %s ====\n", name)
			if err := dispatch[name](); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			fmt.Println()
		}
		return nil
	}
	return dispatch[exp]()
}

// knownExperiments is checked before the expensive pipeline build.
var knownExperiments = map[string]bool{
	"table1": true, "table2": true, "fig1": true, "fig2": true, "fig3": true,
	"fig4": true, "map": true, "all": true, "correlation": true,
	"perblock": true, "ablations": true, "robustness": true, "variation": true,
	"closedloop": true, "loo": true, "faults": true, "adapt": true, "rank": true,
	"shootout": true, "transfer": true,
}

func scaleName(full bool) string {
	if full {
		return "full"
	}
	return "quick"
}

func doTable1(p *experiments.Pipeline, lambdas []float64, csv bool) error {
	d, err := p.Table1(lambdas)
	if err != nil {
		return err
	}
	if csv {
		fmt.Print(d.CSV())
	} else {
		fmt.Print(d.Render())
	}
	return nil
}

func doTable2(p *experiments.Pipeline, sensors int, csv bool) error {
	d, err := p.Table2(sensors)
	if err != nil {
		return err
	}
	if csv {
		fmt.Print(d.CSV())
	} else {
		fmt.Print(d.Render())
		eagle, prop := d.MeanRates()
		fmt.Printf("%-16s | %7.4f %8.4f %7.4f | %7.4f %8.4f %7.4f\n",
			"mean", eagle[0], eagle[1], eagle[2], prop[0], prop[1], prop[2])
	}
	return nil
}

func doFig1(p *experiments.Pipeline, csv bool) error {
	d, err := p.Figure1()
	if err != nil {
		return err
	}
	if csv {
		fmt.Print(d.CSV())
	} else {
		fmt.Print(d.Render())
	}
	return nil
}

func doFig2(p *experiments.Pipeline, bench, block, steps int, csv bool) error {
	d, err := p.Figure2(bench, block, steps)
	if err != nil {
		return err
	}
	if csv {
		fmt.Print(d.CSV())
	} else {
		fmt.Print(d.Render())
	}
	return nil
}

func doFig3(p *experiments.Pipeline) error {
	d, err := p.Figure3(0, 7)
	if err != nil {
		return err
	}
	fmt.Print(d.Render(p))
	return nil
}

func doFig4(p *experiments.Pipeline, bench int, csv bool) error {
	d, err := p.Figure4(bench)
	if err != nil {
		return err
	}
	if csv {
		fmt.Print(d.CSV())
	} else {
		fmt.Print(d.Render())
	}
	return nil
}

func doCorrelation(p *experiments.Pipeline, csv bool) error {
	prof, err := p.CorrelationProfile(1.0)
	if err != nil {
		return err
	}
	if csv {
		fmt.Print(prof.CSV())
	} else {
		fmt.Print(prof.Render())
	}
	return nil
}

func doPerBlock(p *experiments.Pipeline, sensors int) error {
	d, err := p.Table2PerBlock(sensors)
	if err != nil {
		return err
	}
	fmt.Printf("%d sensors/core, pooled held-out set\n", d.SensorsPerCore)
	fmt.Printf("chip-level (paper accounting): %v\n", d.ChipLevel)
	fmt.Printf("per-block extension          : %v\n", d.PerBlock)
	return nil
}

func doAblations(p *experiments.Pipeline) error {
	gl, err := p.AblationGLDirect(4)
	if err != nil {
		return err
	}
	fmt.Printf("GL-direct (Eq.14) vs OLS refit (Eq.20) at λ=%g, %d sensors:\n  %.5f vs %.5f rel err\n",
		gl.Lambda, gl.SensorsCore0, gl.RelErrGL, gl.RelErrRefit)
	om, err := p.AblationOLSMagnitude(4)
	if err != nil {
		return err
	}
	fmt.Printf("OLS-magnitude selection vs GL at q=%d:\n  %.5f vs %.5f rel err (overlap %d)\n",
		om.Q, om.RelErrAlt, om.RelErrGL, om.OverlapsGL)
	pl, err := p.AblationPlainLasso(4)
	if err != nil {
		return err
	}
	fmt.Printf("plain per-output lasso vs GL at q=%d:\n  %.5f vs %.5f rel err (overlap %d)\n",
		pl.Q, pl.RelErrAlt, pl.RelErrGL, pl.OverlapsGL)
	pca, err := p.AblationPCA(4)
	if err != nil {
		return err
	}
	fmt.Printf("PCA loading selection vs GL at q=%d:\n  %.5f vs %.5f rel err (overlap %d)\n",
		pca.Q, pca.RelErrAlt, pca.RelErrGL, pca.OverlapsGL)
	fa, err := p.AblationSensorsInFA(4)
	if err != nil {
		return err
	}
	fmt.Printf("sensors allowed inside FA at q=%d:\n  BA-only %.5f vs with-FA %.5f rel err (%d FA sites chosen)\n",
		fa.Q, fa.RelErrBAOnly, fa.RelErrWithFA, fa.FASelected)
	return nil
}

// doMap demonstrates full-chip voltage map generation: train the per-node
// model on the placed sensors, reconstruct a held-out map, render both.
func doClosedLoop(p *experiments.Pipeline, bench, sensors int) error {
	d, err := p.ClosedLoop(bench, sensors, 400)
	if err != nil {
		return err
	}
	fmt.Printf("%s, %d sensors/core, %d steps\n", d.Bench, d.SensorsPerCore, d.Steps)
	fmt.Printf("open loop : %d emergency steps\n", d.OpenEmergencySteps)
	fmt.Printf("closed    : %d emergency steps (%d alarms, %d throttled core-steps)\n",
		d.ClosedEmergencySteps, d.Alarms, d.ThrottleSteps)
	return nil
}

func doLOO(p *experiments.Pipeline, sensors int) error {
	d, err := p.LeaveOneOut(sensors)
	if err != nil {
		return err
	}
	fmt.Print(d.Render())
	return nil
}

func doVariation(p *experiments.Pipeline, sensors int) error {
	d, err := p.AblationProcessVariation(sensors, 0.15)
	if err != nil {
		return err
	}
	fmt.Printf("process variation σ=%.2f, %d sensors/core (builds a second die; slow)\n", d.SegRSigma, d.SensorsPerCore)
	fmt.Printf("nominal die           : rel err %.4f%%, %v\n", 100*d.NominalRelErr, d.NominalRates)
	fmt.Printf("varied die, no recal  : rel err %.4f%%, %v\n", 100*d.VariedRelErr, d.VariedRates)
	fmt.Printf("varied die, recalib'd : rel err %.4f%%, %v\n", 100*d.RecalRelErr, d.RecalRates)
	return nil
}

func doFaults(p *experiments.Pipeline, sensors, budget int, csv bool) error {
	d, err := p.AblationFaultTolerance(sensors, budget)
	if err != nil {
		return err
	}
	if csv {
		fmt.Print(d.CSV())
	} else {
		fmt.Print(d.Render())
	}
	return nil
}

func doAdapt(p *experiments.Pipeline, sensors int, csv bool) error {
	d, err := p.AblationOnlineAdaptation(sensors, 0.15, online.Config{})
	if err != nil {
		return err
	}
	if csv {
		fmt.Print(d.CSV())
	} else {
		fmt.Print(d.Render())
	}
	return nil
}

func doTransfer(p *experiments.Pipeline, sensors int, csv bool) error {
	d, err := p.AblationTransfer(sensors, 0.15, 3, nil, transfer.AlignConfig{})
	if err != nil {
		return err
	}
	if csv {
		fmt.Print(d.CSV())
	} else {
		fmt.Print(d.Render())
	}
	return nil
}

func doRank(p *experiments.Pipeline, lambda float64, csv bool) error {
	d, err := p.RankStudy(lambda, []float64{0.99, 0.999, 0.9999})
	if err != nil {
		return err
	}
	if csv {
		fmt.Print(d.CSV())
	} else {
		fmt.Print(d.Render())
	}
	return nil
}

func doShootout(p *experiments.Pipeline, q int, criteriaCSV string, budget float64, csv bool) error {
	var criteria []string
	if criteriaCSV != "" {
		for _, tok := range strings.Split(criteriaCSV, ",") {
			criteria = append(criteria, strings.TrimSpace(tok))
		}
	}
	spec := place.DefaultClassSpec
	if budget <= 0 {
		budget = float64(q) * spec.RefCost
	}
	d, err := p.CriteriaShootout(q, criteria, spec, budget)
	if err != nil {
		return err
	}
	if csv {
		fmt.Print(d.CSV())
	} else {
		fmt.Print(d.Render())
	}
	return nil
}

func doRobustness(p *experiments.Pipeline, sensors int) error {
	d, err := p.AblationSensorRobustness(sensors, nil)
	if err != nil {
		return err
	}
	fmt.Print(d.Render())
	return nil
}

func doMap(p *experiments.Pipeline) error {
	_, union, err := p.ChipPlacementCount(2)
	if err != nil {
		return err
	}
	// Training data for the map generator: the full candidate+critical rows
	// only cover monitored nodes; for the demo we reconstruct the candidate
	// field itself (every blank-area node) plus the critical nodes.
	sensorX := p.Train.CandV.SelectRows(union)
	gen, err := vmap.Train(sensorX, p.Train.CandV)
	if err != nil {
		return err
	}
	test := p.TestByBench[p.BusiestBenchmark()]
	col := worstColumn(test)
	sensorV := make([]float64, len(union))
	for i, s := range union {
		sensorV[i] = test.CandV.At(s, col)
	}
	pred := gen.Generate(sensorV)
	truth := test.CandV.Col(col)
	e := vmap.Compare(pred, truth)
	fmt.Printf("reconstructed blank-area voltage field from %d sensors: rel=%.5f rms=%.5f V max=%.5f V\n",
		len(union), e.Rel, e.RMS, e.MaxAbs)

	// Render truth and reconstruction over the full mesh (function-area
	// nodes shown at VDD since only BA rows are reconstructed here).
	vdd := p.Grid.Cfg.VDD
	full := make([]float64, p.Grid.NumNodes())
	fillMap(full, vdd)
	for i, nd := range p.Grid.Candidates {
		full[nd] = truth[i]
	}
	fmt.Println("measured blank-area field:")
	fmt.Print(vmap.Render(p.Grid, full, detect.DefaultVth, vdd))
	for i, nd := range p.Grid.Candidates {
		full[nd] = pred[i]
	}
	fmt.Println("reconstructed from sensors:")
	fmt.Print(vmap.Render(p.Grid, full, detect.DefaultVth, vdd))
	return nil
}

func fillMap(v []float64, x float64) {
	for i := range v {
		v[i] = x
	}
}

// worstColumn returns the sample with the deepest critical-node droop.
func worstColumn(s *experiments.SampleSet) int {
	best, bestV := 0, 2.0
	for j := 0; j < s.N(); j++ {
		for i := 0; i < s.CritV.Rows(); i++ {
			if v := s.CritV.At(i, j); v < bestV {
				best, bestV = j, v
			}
		}
	}
	return best
}
