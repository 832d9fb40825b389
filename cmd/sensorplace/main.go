// Command sensorplace runs the DAC 2015 sensor-placement methodology on
// user-supplied voltage samples, so the library can be applied to data from
// any power-grid simulator or silicon instrumentation without writing Go.
//
// Inputs are two CSV files with one header row and one row per simultaneous
// sample (see internal/traceio): -x holds the candidate-site voltages, -f
// the monitored-node voltages. The tool selects sensors — by the paper's
// group lasso at a fixed budget (-lambda) or targeting a sensor count
// (-count), or by any registered placement criterion (-criterion, see
// DESIGN.md §13) at a sensor count — refits the unbiased prediction model,
// reports held-out accuracy, and optionally writes the runtime model as
// JSON (-model) for deployment.
//
// With -budget the tool instead spends a cost budget across heterogeneous
// sensor classes (reference vs low-cost devices, priced and noise-rated by
// -class-noise) and refits by GLS so each sensor is weighted by its
// precision.
//
// With -fallback-budget the artifact additionally carries leave-k-out
// fallback submodels so voltserved can survive up to that many sensor
// failures at runtime (see internal/faults). With -rank or -energy the
// group-lasso selection runs in a POD compression of the monitored nodes —
// same methodology at O(r/K) of the solver cost (see internal/basis); for
// criterion-driven placement the same flags size the candidate POD basis
// instead. Either way the flags only shape the selection: every
// homogeneous placement refits the dense Eq. 17 model against all the
// monitored nodes.
//
//	sensorplace -x candidates.csv -f blocks.csv -count 4 -fallback-budget 1 -model model.json
//	sensorplace -x candidates.csv -f blocks.csv -count 8 -criterion dopt
//	sensorplace -x candidates.csv -f blocks.csv -budget 24 -class-noise 0.0025,0.04
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"voltsense/internal/basis"
	"voltsense/internal/core"
	"voltsense/internal/lasso"
	"voltsense/internal/mat"
	"voltsense/internal/ols"
	"voltsense/internal/place"
	"voltsense/internal/profiling"
	"voltsense/internal/traceio"
)

// startProfiles hooks the -cpuprofile/-memprofile flags up to the shared
// profiling helper; the returned stop writes both files.
func startProfiles(cpuPath, memPath string) (func() error, error) {
	return profiling.Start(cpuPath, memPath)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sensorplace:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sensorplace", flag.ContinueOnError)
	xPath := fs.String("x", "", "CSV of candidate-site voltage samples (required)")
	fPath := fs.String("f", "", "CSV of monitored-node voltage samples (required)")
	lambda := fs.Float64("lambda", 0, "group-lasso budget λ (mutually exclusive with -count)")
	count := fs.Int("count", 0, "target sensor count (mutually exclusive with -lambda)")
	threshold := fs.Float64("threshold", core.DefaultThreshold, "group-norm selection threshold T")
	holdout := fs.Float64("holdout", 0.25, "fraction of samples reserved for accuracy reporting")
	modelPath := fs.String("model", "", "write the fitted runtime model as JSON to this path")
	criterion := fs.String("criterion", "grouplasso", "placement criterion ("+strings.Join(place.Names(), ", ")+"); non-grouplasso criteria require -count and refuse -lambda (see DESIGN.md §13)")
	budget := fs.Float64("budget", 0, "mixed-class cost budget: place reference and low-cost sensors until the budget runs out and refit by GLS (mutually exclusive with -lambda/-count/-criterion/-fallback-budget)")
	classNoise := fs.String("class-noise", "", "per-class noise variances REFVAR,LOWVAR for -budget placement (default 0.0025,0.04)")
	fallbackBudget := fs.Int("fallback-budget", 0, "fit leave-k-out fallback submodels tolerating up to this many failed sensors (0 = none)")
	rank := fs.Int("rank", 0, "rank-r POD basis: compresses the monitored nodes for group lasso, sizes the candidate basis for other criteria (0 = default)")
	energyFrac := fs.Float64("energy", 0, "smallest POD basis capturing this energy fraction, e.g. 0.99; same role as -rank (0 = default)")
	sparseWorkers := fs.Int("sparse-workers", 0, "bound the shared worker pool of the matrix and solver kernels (0 = all cores, 1 = serial); results are identical either way")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile := fs.String("memprofile", "", "write a heap profile to this path on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sparseWorkers < 0 {
		return fmt.Errorf("-sparse-workers must be >= 0, got %d", *sparseWorkers)
	}
	if *sparseWorkers > 0 {
		mat.SetParallelism(*sparseWorkers)
	}
	stopProf, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "sensorplace: profiling:", err)
		}
	}()
	if *xPath == "" || *fPath == "" {
		fs.Usage()
		return errors.New("both -x and -f are required")
	}
	crit, err := place.ParseCriterion(*criterion)
	if err != nil {
		return err
	}
	critDriven := crit.Name() != "grouplasso"
	mixed := *budget > 0
	if mixed {
		if *lambda > 0 || *count > 0 {
			return errors.New("-budget replaces -lambda/-count: the cost budget determines the sensor count")
		}
		if critDriven {
			return errors.New("-budget runs its own mixed-class greedy; drop -criterion")
		}
		if *fallbackBudget > 0 {
			return errors.New("-fallback-budget needs the dense homogeneous refit and cannot combine with the GLS refit of -budget")
		}
	} else {
		if *classNoise != "" {
			return errors.New("-class-noise only applies to -budget mixed placement")
		}
		if (*lambda > 0) == (*count > 0) {
			return errors.New("specify exactly one of -lambda or -count (or a mixed-class -budget)")
		}
		if critDriven && *lambda > 0 {
			return fmt.Errorf("-criterion %s selects by sensor count; use -count, not -lambda", crit.Name())
		}
	}
	if *holdout < 0 || *holdout >= 1 {
		return fmt.Errorf("-holdout %v out of [0, 1)", *holdout)
	}
	if *rank > 0 && *energyFrac > 0 {
		return errors.New("specify at most one of -rank and -energy")
	}
	reduced := *rank > 0 || *energyFrac > 0
	bc := basis.Config{Rank: *rank, Energy: *energyFrac}

	xf, err := os.Open(*xPath)
	if err != nil {
		return err
	}
	defer xf.Close()
	ff, err := os.Open(*fPath)
	if err != nil {
		return err
	}
	defer ff.Close()
	rawX, xNames, err := traceio.ReadMatrixCSV(xf)
	if err != nil {
		return fmt.Errorf("reading -x: %w", err)
	}
	rawF, _, err := traceio.ReadMatrixCSV(ff)
	if err != nil {
		return fmt.Errorf("reading -f: %w", err)
	}
	if rawX.Cols() != rawF.Cols() {
		return fmt.Errorf("-x has %d samples, -f has %d", rawX.Cols(), rawF.Cols())
	}
	full := &core.Dataset{X: rawX, F: rawF}
	fmt.Fprintf(out, "loaded %d candidates x %d samples, %d monitored nodes\n",
		full.X.Rows(), full.X.Cols(), full.F.Rows())

	train, test := split(full, *holdout)

	var selected []int
	var pred *core.Predictor // set early by the mixed path, which refits by GLS
	cc := core.CriterionConfig{Basis: bc, Threshold: *threshold, Solver: lasso.Options{MaxIter: 3000, Tol: 1e-7}}
	switch {
	case mixed:
		spec := place.DefaultClassSpec
		if *classNoise != "" {
			if spec.RefVar, spec.LowCostVar, err = parseClassNoise(*classNoise); err != nil {
				return err
			}
		}
		mp, prob, err := core.PlaceMixedSensors(train, spec, *budget, cc)
		if err != nil {
			return err
		}
		selected = mp.Selected
		ref, low := mp.CountByClass()
		fmt.Fprintf(out, "budget %g placed %d sensors (%d reference, %d low-cost, cost %g)\n",
			*budget, len(selected), ref, low, mp.Cost)
		pred, err = core.BuildGLSPredictor(prob, mp.Selected, mp.NoiseVariances(spec))
		if err != nil {
			return err
		}
	case critDriven:
		cp, err := core.PlaceWith(train, crit, *count, cc)
		if err != nil {
			return err
		}
		selected = cp.Selected
		fmt.Fprintf(out, "%s selected %d sensors (candidate POD rank %d)\n",
			crit.Name(), len(selected), cp.Problem.Rank())
	case *lambda > 0 && reduced:
		pl, err := core.PlaceSensorsReduced(train, core.Config{Lambda: *lambda, Threshold: *threshold}, bc)
		if err != nil {
			return err
		}
		selected = pl.Selected
		fmt.Fprintf(out, "λ=%g selected %d sensors (POD rank %d, %.4f%% energy)\n",
			*lambda, len(selected), pl.Basis.Rank(), 100*pl.Basis.EnergyCaptured())
	case *lambda > 0:
		pl, err := core.PlaceSensors(train, core.Config{Lambda: *lambda, Threshold: *threshold})
		if err != nil {
			return err
		}
		selected = pl.Selected
		fmt.Fprintf(out, "λ=%g selected %d sensors\n", *lambda, len(selected))
	default:
		sel, mu, b, err := placeForCount(train, *count, *threshold, reduced, bc)
		if err != nil {
			return err
		}
		selected = sel
		if b != nil {
			fmt.Fprintf(out, "count targeting reached %d sensors (μ=%.4g, POD rank %d, %.4f%% energy)\n",
				len(selected), mu, b.Rank(), 100*b.EnergyCaptured())
		} else {
			fmt.Fprintf(out, "count targeting reached %d sensors (μ=%.4g)\n", len(selected), mu)
		}
	}
	if len(selected) == 0 {
		return errors.New("no sensors selected; increase -lambda or check the data")
	}
	fmt.Fprintf(out, "selected candidate indices: %v\n", selected)
	names := make([]string, len(selected))
	for i, s := range selected {
		names[i] = xNames[s]
	}
	fmt.Fprintf(out, "selected candidate names:   %v\n", names)

	switch {
	case pred != nil:
		// Mixed placement already refit by GLS above.
	case *fallbackBudget > 0:
		pred, err = core.BuildPredictorWithFallbacks(train, selected, *fallbackBudget)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "fitted %d fallback submodels (budget %d failed sensors)\n",
			len(pred.Fallbacks.Models), *fallbackBudget)
	default:
		pred, err = core.BuildPredictor(train, selected)
		if err != nil {
			return err
		}
	}
	if test != nil {
		rel := ols.RelativeError(pred.PredictDataset(test), test.F)
		fmt.Fprintf(out, "held-out relative prediction error: %.4f%%\n", 100*rel)
	}
	if *modelPath != "" {
		mf, err := os.Create(*modelPath)
		if err != nil {
			return err
		}
		defer mf.Close()
		if err := pred.Save(mf); err != nil {
			return err
		}
		fmt.Fprintf(out, "runtime model written to %s\n", *modelPath)
	}
	return nil
}

// parseClassNoise parses "REFVAR,LOWVAR" into the two class noise variances.
func parseClassNoise(s string) (refVar, lowVar float64, err error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("-class-noise %q: want REFVAR,LOWVAR", s)
	}
	if refVar, err = strconv.ParseFloat(strings.TrimSpace(parts[0]), 64); err != nil {
		return 0, 0, fmt.Errorf("-class-noise reference variance: %w", err)
	}
	if lowVar, err = strconv.ParseFloat(strings.TrimSpace(parts[1]), 64); err != nil {
		return 0, 0, fmt.Errorf("-class-noise low-cost variance: %w", err)
	}
	return refVar, lowVar, nil
}

// split reserves the trailing holdout fraction for testing.
func split(ds *core.Dataset, holdout float64) (train, test *core.Dataset) {
	n := ds.X.Cols()
	nTest := int(float64(n) * holdout)
	if nTest < 1 {
		return ds, nil
	}
	trainCols := make([]int, 0, n-nTest)
	testCols := make([]int, 0, nTest)
	for j := 0; j < n-nTest; j++ {
		trainCols = append(trainCols, j)
	}
	for j := n - nTest; j < n; j++ {
		testCols = append(testCols, j)
	}
	return ds.Subset(trainCols), ds.Subset(testCols)
}

// placeForCount runs the path solver's count bisection
// (lasso.PathSolver.SelectCount) for q sensors: one Gram build, each of at
// most 40 midpoint solves warm-started from the last with safe screening,
// trimming to the strongest groups when the count cannot land exactly. With
// reduced set, the targets are first projected onto a POD basis (bc picks
// the rank), so every one of those solves costs O(r/K) of the dense
// version; the fitted basis is returned for reporting (nil on the dense
// path).
func placeForCount(ds *core.Dataset, q int, threshold float64, reduced bool, bc basis.Config) ([]int, float64, *basis.Basis, error) {
	z, _ := mat.Standardize(ds.X)
	g, _ := mat.Standardize(ds.F)
	var b *basis.Basis
	if reduced {
		var err error
		b, err = basis.Fit(g, bc)
		if err != nil {
			return nil, 0, nil, err
		}
		g, err = b.Project(g)
		if err != nil {
			return nil, 0, nil, err
		}
	}
	sel, _, mu, err := lasso.NewPathSolver(z, g, lasso.Options{MaxIter: 3000, Tol: 1e-7}).SelectCount(q, threshold)
	return sel, mu, b, err
}
