package experiments

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"voltsense/internal/core"
	"voltsense/internal/lasso"
	"voltsense/internal/mat"
	"voltsense/internal/ols"
)

// SelectionComparison scores one alternative selection strategy against the
// paper's group-lasso choice at the same sensor count, on core 0 held-out
// data.
type SelectionComparison struct {
	Strategy    string
	Q           int     // sensors compared
	RelErrGL    float64 // group-lasso selection + OLS refit
	RelErrAlt   float64 // alternative selection + OLS refit
	OverlapsGL  int     // sensors shared with the GL selection
	AltSelected []int   // local candidate indices of the alternative
}

// AblationOLSMagnitude evaluates the "intuitive idea" the paper's Section
// 2.2 dismisses: fit the full OLS model of Eq. 7 over every candidate and
// keep the q candidates with the largest coefficient-column norms.
func (p *Pipeline) AblationOLSMagnitude(q int) (*SelectionComparison, error) {
	ds, _ := p.glTrainDataset(0)
	if q < 1 || q > ds.X.Rows() {
		return nil, fmt.Errorf("experiments: bad q=%d for %d candidates", q, ds.X.Rows())
	}
	full, err := ols.Fit(ds.X, ds.F)
	if err != nil {
		// Neighboring mesh candidates can be nearly collinear, making the
		// all-candidate OLS of Eq. 7 rank-deficient — itself evidence for
		// the paper's point. Ridge-regularize minimally by dropping to the
		// penalized group solver with a tiny μ to get usable magnitudes.
		r, lerr := lasso.SolvePenalized(standardizeX(ds.X), standardizeF(ds.F), 1e-6,
			lasso.Options{MaxIter: 3000, Tol: 1e-8})
		if lerr != nil && !errors.Is(lerr, lasso.ErrDidNotConverge) {
			return nil, fmt.Errorf("experiments: OLS-magnitude fallback: %w", lerr)
		}
		return p.finishComparison("ols-magnitude", q, topQ(r.GroupNorms, q))
	}
	norms := make([]float64, full.Alpha.Cols())
	for i := 0; i < full.Alpha.Rows(); i++ {
		row := full.Alpha.Row(i)
		for j, v := range row {
			norms[j] += v * v
		}
	}
	for j := range norms {
		norms[j] = math.Sqrt(norms[j])
	}
	_ = err
	return p.finishComparison("ols-magnitude", q, topQ(norms, q))
}

// AblationPlainLasso evaluates non-grouped selection: run an independent
// lasso per output (K = 1 group lasso) and take the q candidates appearing
// in the most per-output supports — what one would do without the grouping
// insight.
func (p *Pipeline) AblationPlainLasso(q int) (*SelectionComparison, error) {
	ds, _ := p.glTrainDataset(0)
	if q < 1 || q > ds.X.Rows() {
		return nil, fmt.Errorf("experiments: bad q=%d for %d candidates", q, ds.X.Rows())
	}
	z := standardizeX(ds.X)
	g := standardizeF(ds.F)
	votes := make([]float64, ds.X.Rows())
	opts := lasso.Options{MaxIter: 2000, Tol: 1e-6}
	for k := 0; k < g.Rows(); k++ {
		gk := g.SelectRows([]int{k})
		// A per-output μ sized to pick a handful of features.
		r, _, err := lasso.SolvePenalizedForBudget(z, gk, 2, 0.05, opts)
		if err != nil && !errors.Is(err, lasso.ErrDidNotConverge) {
			return nil, fmt.Errorf("experiments: plain lasso output %d: %w", k, err)
		}
		for _, m := range r.Select(p.threshold()) {
			votes[m] += 1 + r.GroupNorms[m] // count + strength tie-break
		}
	}
	return p.finishComparison("plain-lasso", q, topQ(votes, q))
}

// finishComparison builds OLS refits for both the GL selection and the
// alternative at count q and scores them on core-0 held-out data.
func (p *Pipeline) finishComparison(name string, q int, alt []int) (*SelectionComparison, error) {
	glPl, err := p.PlaceCoreCount(0, q)
	if err != nil {
		return nil, err
	}
	trainDS, _ := p.CoreDataset(0, p.Train)
	testDS, _ := p.CoreDataset(0, p.TestAll())

	score := func(sel []int) (float64, error) {
		pred, err := core.BuildPredictor(trainDS, sel)
		if err != nil {
			return 0, err
		}
		return ols.RelativeError(pred.PredictDataset(testDS), testDS.F), nil
	}
	glErr, err := score(glPl.LocalIdx)
	if err != nil {
		return nil, err
	}
	altErr, err := score(alt)
	if err != nil {
		return nil, err
	}
	glSet := map[int]bool{}
	for _, s := range glPl.LocalIdx {
		glSet[s] = true
	}
	overlap := 0
	for _, s := range alt {
		if glSet[s] {
			overlap++
		}
	}
	return &SelectionComparison{
		Strategy: name, Q: q,
		RelErrGL: glErr, RelErrAlt: altErr,
		OverlapsGL: overlap, AltSelected: alt,
	}, nil
}

// AblationPCA evaluates an unsupervised alternative: eigendecompose the
// candidate covariance and, for each of the top q principal components,
// keep the candidate with the largest loading. PCA sees only where the
// *candidate* field varies — not which candidates explain the *function
// area* — so it is the natural "information-less" strawman for the
// supervised group-lasso selection.
func (p *Pipeline) AblationPCA(q int) (*SelectionComparison, error) {
	ds, _ := p.glTrainDataset(0)
	if q < 1 || q > ds.X.Rows() {
		return nil, fmt.Errorf("experiments: bad q=%d for %d candidates", q, ds.X.Rows())
	}
	z := standardizeX(ds.X)
	n := float64(z.Cols())
	cov := mat.Scale(1/n, mat.MulT(z, z))
	eig, err := mat.FactorSymEigen(cov)
	if err != nil {
		return nil, fmt.Errorf("experiments: PCA: %w", err)
	}
	used := map[int]bool{}
	var sel []int
	for comp := 0; comp < cov.Rows() && len(sel) < q; comp++ {
		vec := eig.Vectors.Col(comp)
		best, bestA := -1, -1.0
		for m, v := range vec {
			if used[m] {
				continue
			}
			if a := math.Abs(v); a > bestA {
				best, bestA = m, a
			}
		}
		if best < 0 {
			break
		}
		used[best] = true
		sel = append(sel, best)
	}
	sort.Ints(sel)
	return p.finishComparison("pca", q, sel)
}

// FASensorResult quantifies the paper's closing remark: letting sensors sit
// inside the function area (here: directly at critical nodes) improves
// prediction further.
type FASensorResult struct {
	Q            int
	RelErrBAOnly float64 // sensors restricted to the blank area (the paper's setting)
	RelErrWithFA float64 // critical nodes admitted as candidate sites
	FASelected   int     // how many of the chosen sensors are FA nodes
}

// AblationSensorsInFA re-runs core-0 placement with the core's critical
// nodes added to the candidate pool.
func (p *Pipeline) AblationSensorsInFA(q int) (*FASensorResult, error) {
	ds, _ := p.glTrainDataset(0)
	if q < 1 {
		return nil, fmt.Errorf("experiments: bad q=%d", q)
	}
	ba, err := p.PlaceCoreCount(0, q)
	if err != nil {
		return nil, err
	}
	trainDS, _ := p.CoreDataset(0, p.Train)
	testDS, _ := p.CoreDataset(0, p.TestAll())
	baPred, err := core.BuildPredictor(trainDS, ba.LocalIdx)
	if err != nil {
		return nil, err
	}
	baErr := ols.RelativeError(baPred.PredictDataset(testDS), testDS.F)

	// Extended pool: BA candidates followed by the core's critical nodes.
	mBA := ds.X.Rows()
	extGL := stackRows(ds.X, ds.F)
	extTrain := stackRows(trainDS.X, trainDS.F)
	extTest := stackRows(testDS.X, testDS.F)
	// Count-targeted selection over the extended pool, configured like the
	// BA-only side's core solver.
	ps := lasso.NewPathSolver(standardizeX(extGL), standardizeF(ds.F), p.placementSolver())
	sel, _, _, err := ps.SelectCount(q, p.threshold())
	if err != nil {
		return nil, fmt.Errorf("experiments: FA placement: %w", err)
	}
	extPred, err := core.BuildPredictor(&core.Dataset{X: extTrain, F: trainDS.F}, sel)
	if err != nil {
		return nil, err
	}
	extErr := ols.RelativeError(extPred.PredictDataset(&core.Dataset{X: extTest, F: testDS.F}), testDS.F)

	fa := 0
	for _, s := range sel {
		if s >= mBA {
			fa++
		}
	}
	return &FASensorResult{Q: q, RelErrBAOnly: baErr, RelErrWithFA: extErr, FASelected: fa}, nil
}

func standardizeX(x *mat.Matrix) *mat.Matrix {
	z, _ := mat.Standardize(x)
	return z
}

func standardizeF(f *mat.Matrix) *mat.Matrix {
	g, _ := mat.Standardize(f)
	return g
}

// stackRows concatenates the rows of a and b into one matrix (same column
// count).
func stackRows(a, b *mat.Matrix) *mat.Matrix {
	if a.Cols() != b.Cols() {
		panic(fmt.Sprintf("experiments: stackRows columns %d vs %d", a.Cols(), b.Cols()))
	}
	out := mat.Zeros(a.Rows()+b.Rows(), a.Cols())
	for i := 0; i < a.Rows(); i++ {
		copy(out.Row(i), a.Row(i))
	}
	for i := 0; i < b.Rows(); i++ {
		copy(out.Row(a.Rows()+i), b.Row(i))
	}
	return out
}

// topQ returns the indices of the q largest scores, ascending by index.
func topQ(scores []float64, q int) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	out := make([]int, q)
	copy(out, idx[:q])
	sort.Ints(out)
	return out
}
