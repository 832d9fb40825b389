// Package core implements the paper's methodology end to end: the
// group-lasso sensor-placement step (Section 2.2), the unbiased OLS
// prediction-model refit (Section 2.3), and the λ-sweep workflow that ties
// them together (Section 2.4, Steps 0-8).
//
// Data follows the paper's conventions: X is the M-by-N matrix of raw
// candidate-sensor voltages (one row per blank-area candidate site, one
// column per sampled voltage map), F is the K-by-N matrix of raw
// noise-critical-node voltages (one row per function block).
package core

import (
	"errors"
	"fmt"

	"voltsense/internal/basis"
	"voltsense/internal/lasso"
	"voltsense/internal/mat"
	"voltsense/internal/ols"
)

// DefaultThreshold is the paper's T = 1e-3 cut on ‖β_m‖₂ separating selected
// from rejected candidates (Step 5).
const DefaultThreshold = 1e-3

// Dataset pairs candidate-sensor samples with critical-node samples.
type Dataset struct {
	X *mat.Matrix // M-by-N raw candidate voltages
	F *mat.Matrix // K-by-N raw critical-node voltages
}

// Check validates the shape invariants.
func (d *Dataset) Check() error {
	if d.X == nil || d.F == nil {
		return errors.New("core: dataset missing X or F")
	}
	if d.X.Cols() != d.F.Cols() {
		return fmt.Errorf("core: X has %d samples, F has %d", d.X.Cols(), d.F.Cols())
	}
	if d.X.Cols() == 0 {
		return errors.New("core: dataset is empty")
	}
	return nil
}

// Subset returns a view-free copy of the dataset restricted to the given
// sample (column) indices, used for train/test splits.
func (d *Dataset) Subset(cols []int) *Dataset {
	return &Dataset{X: d.X.SelectCols(cols), F: d.F.SelectCols(cols)}
}

// Config parameterizes sensor placement.
type Config struct {
	Lambda    float64       // the paper's group-norm budget λ
	Threshold float64       // T; DefaultThreshold when zero
	Solver    lasso.Options // group-lasso solver options
}

// Placement is the result of Steps 2-5: the selected sensor set and the
// group norms used to pick it (the data behind the paper's Figure 1).
type Placement struct {
	Lambda     float64
	Threshold  float64
	Selected   []int     // indices into the candidate rows of X, ascending
	GroupNorms []float64 // ‖β_m‖₂ per candidate
	GL         *lasso.Result
	XStd       *mat.Standardization // normalization of X used by GL
	FStd       *mat.Standardization // normalization of F used by GL
}

// PlaceSensors runs the group-lasso selection: normalize X and F to zero
// mean and unit variance (Step 3), solve the constrained problem Eq. 12
// (Step 4), and threshold the group norms (Step 5).
func PlaceSensors(ds *Dataset, cfg Config) (*Placement, error) {
	pl, _, err := placeSensors(ds, cfg, nil)
	return pl, err
}

// placeSensors is the body of PlaceSensors and PlaceSensorsReduced. With bc
// set, the standardized targets are projected onto a POD basis fitted to
// them before the solve, and the basis is returned. The solve is the first
// SolveConstrained of a fresh path solver: FISTA from zero, no screening.
func placeSensors(ds *Dataset, cfg Config, bc *basis.Config) (*Placement, *basis.Basis, error) {
	if err := ds.Check(); err != nil {
		return nil, nil, err
	}
	if cfg.Lambda < 0 {
		return nil, nil, fmt.Errorf("core: negative lambda %v", cfg.Lambda)
	}
	thr := cfg.Threshold
	if thr == 0 {
		thr = DefaultThreshold
	}
	z, xStd := mat.Standardize(ds.X)
	g, fStd := mat.Standardize(ds.F)
	var b *basis.Basis
	if bc != nil {
		var err error
		if b, err = basis.Fit(g, *bc); err != nil {
			return nil, nil, fmt.Errorf("core: target basis: %w", err)
		}
		if g, err = b.Project(g); err != nil {
			return nil, nil, fmt.Errorf("core: target projection: %w", err)
		}
	}
	res, _, err := lasso.NewPathSolver(z, g, cfg.Solver).SolveConstrained(cfg.Lambda)
	if err != nil && !errors.Is(err, lasso.ErrDidNotConverge) {
		return nil, nil, fmt.Errorf("core: group lasso: %w", err)
	}
	return &Placement{
		Lambda:     cfg.Lambda,
		Threshold:  thr,
		Selected:   res.Select(thr),
		GroupNorms: res.GroupNorms,
		GL:         res,
		XStd:       xStd,
		FStd:       fStd,
	}, b, nil
}

// Predictor is the runtime model of Eq. 20: f* = αˢ·xˢ + c evaluated on the
// raw voltages of the selected sensors. Fallbacks, when present, carries the
// fault-tolerance tier: leave-k-out submodels and the per-sensor training
// statistics the runtime fault detector needs (see FitFallbacks).
type Predictor struct {
	Selected  []int // candidate indices feeding the model, ascending
	Model     *ols.Model
	Fallbacks *FallbackSet // optional; nil for legacy artifacts
	Lineage   *Lineage     // optional provenance; nil for legacy artifacts
}

// BuildPredictor runs Steps 6-8: restrict X to the selected sensors and
// refit an unbiased OLS model with intercept on the raw data. The selection
// must be strictly ascending: a duplicated index would feed the same
// reading into two coefficients and silently double-count it.
func BuildPredictor(ds *Dataset, selected []int) (*Predictor, error) {
	p, _, err := buildPredictor(ds, selected)
	return p, err
}

// buildPredictor is BuildPredictor, also returning the factorization the
// refit solved, from which the fallback models follow.
func buildPredictor(ds *Dataset, selected []int) (*Predictor, *ols.Factorization, error) {
	if err := ds.Check(); err != nil {
		return nil, nil, err
	}
	if len(selected) == 0 {
		return nil, nil, errors.New("core: no sensors selected; increase lambda")
	}
	for i, s := range selected {
		if s < 0 || s >= ds.X.Rows() {
			return nil, nil, fmt.Errorf("core: selected sensor %d out of range 0..%d", s, ds.X.Rows()-1)
		}
		if i > 0 && s == selected[i-1] {
			return nil, nil, fmt.Errorf("core: duplicate selected sensor %d", s)
		}
		if i > 0 && s < selected[i-1] {
			return nil, nil, fmt.Errorf("core: selected sensors not ascending at position %d", i)
		}
	}
	fz, err := ols.Factor(ds.X.SelectRows(selected), ds.F)
	if err != nil {
		return nil, nil, fmt.Errorf("core: OLS refit: %w", err)
	}
	m, err := fz.Model()
	if err != nil {
		return nil, nil, fmt.Errorf("core: OLS refit: %w", err)
	}
	sel := make([]int, len(selected))
	copy(sel, selected)
	return &Predictor{Selected: sel, Model: m}, fz, nil
}

// Predict maps the raw voltages of the selected sensors (length Q, ordered
// as Selected) to the K predicted critical-node voltages.
func (p *Predictor) Predict(sensorV []float64) []float64 {
	return p.Model.Predict(sensorV)
}

// PredictFromCandidates picks the selected sensors out of a full
// candidate-voltage vector (length M) and predicts.
func (p *Predictor) PredictFromCandidates(allV []float64) []float64 {
	x := make([]float64, len(p.Selected))
	for i, s := range p.Selected {
		x[i] = allV[s]
	}
	return p.Model.Predict(x)
}

// PredictDataset evaluates the predictor over every sample of ds, returning
// the K-by-N prediction matrix.
func (p *Predictor) PredictDataset(ds *Dataset) *mat.Matrix {
	return p.Model.PredictMatrix(ds.X.SelectRows(p.Selected))
}

// GLDirectPredictor evaluates the biased Eq. 14 model — the group-lasso
// coefficients used directly, without the OLS refit. It exists to quantify
// the bias the paper's Section 2.3 warns about (an ablation, not the
// production path).
type GLDirectPredictor struct {
	Selected []int
	beta     *mat.Matrix // K-by-Q columns of the GL solution
	xStd     *mat.Standardization
	fStd     *mat.Standardization
}

// BuildGLDirect builds the Eq. 14 predictor from a placement.
func BuildGLDirect(pl *Placement) (*GLDirectPredictor, error) {
	if len(pl.Selected) == 0 {
		return nil, errors.New("core: placement selected no sensors")
	}
	return &GLDirectPredictor{
		Selected: pl.Selected,
		beta:     pl.GL.Beta.SelectCols(pl.Selected),
		xStd:     pl.XStd.Subset(pl.Selected),
		fStd:     pl.FStd,
	}, nil
}

// Predict normalizes the selected-sensor voltages, applies the GL
// coefficients, and de-normalizes the outputs.
func (p *GLDirectPredictor) Predict(sensorV []float64) []float64 {
	z := p.xStd.Apply(sensorV)
	g := mat.MulVec(p.beta, z)
	return p.fStd.Invert(g)
}

// PredictDataset evaluates Eq. 14 over every sample of ds.
func (p *GLDirectPredictor) PredictDataset(ds *Dataset) *mat.Matrix {
	xs := ds.X.SelectRows(p.Selected)
	out := mat.Zeros(ds.F.Rows(), ds.X.Cols())
	for j := 0; j < xs.Cols(); j++ {
		out.SetCol(j, p.Predict(xs.Col(j)))
	}
	return out
}

// SweepPoint is one λ value of the Section 2.4 sweep: its placement, its
// refit predictor, and the aggregated relative prediction error on held-out
// data (the paper's Table 1 row contents).
type SweepPoint struct {
	Lambda     int // kept as the sweep's nominal integer λ for reporting
	LambdaF    float64
	NumSensors int
	RelError   float64
	Placement  *Placement
	Predictor  *Predictor
}

// SweepLambda runs Steps 4-8 for every λ, fitting on train and scoring the
// aggregated relative error on test. λ values producing an empty selection
// yield a point with NumSensors 0 and RelError NaN-free +Inf semantics
// avoided: such points carry a nil Predictor and RelError 1 (predicting
// nothing is a total miss); callers typically start sweeps high enough to
// select at least one sensor.
func SweepLambda(train, test *Dataset, lambdas []float64, cfg Config) ([]SweepPoint, error) {
	if err := train.Check(); err != nil {
		return nil, err
	}
	if err := test.Check(); err != nil {
		return nil, err
	}
	out := make([]SweepPoint, 0, len(lambdas))
	for _, l := range lambdas {
		c := cfg
		c.Lambda = l
		pl, err := PlaceSensors(train, c)
		if err != nil {
			return nil, fmt.Errorf("core: sweep λ=%v: %w", l, err)
		}
		pt := SweepPoint{Lambda: int(l), LambdaF: l, NumSensors: len(pl.Selected), Placement: pl, RelError: 1}
		if len(pl.Selected) > 0 {
			pred, err := BuildPredictor(train, pl.Selected)
			if err != nil {
				return nil, fmt.Errorf("core: sweep λ=%v: %w", l, err)
			}
			pt.Predictor = pred
			pt.RelError = ols.RelativeError(pred.PredictDataset(test), test.F)
		}
		out = append(out, pt)
	}
	return out, nil
}
