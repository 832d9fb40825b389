package experiments

import (
	"fmt"

	"voltsense/internal/core"
	"voltsense/internal/detect"
	"voltsense/internal/eagleeye"
	"voltsense/internal/floorplan"
	"voltsense/internal/mat"
)

// Fig1Data is the paper's Figure 1: the group norm ‖β_m‖₂ of every sensor
// candidate in one core, for each λ, against the selection threshold T.
type Fig1Data struct {
	Core      int
	Lambdas   []float64
	Norms     [][]float64 // [lambda][candidate]
	Selected  [][]int     // [lambda] -> selected local candidate indices
	Threshold float64
}

// Figure1 computes Fig1Data for core 0. With no λ values given it uses
// {2, 4} — this substrate's analogue of the paper's {10, 30} pair (a
// ~2-sensor budget and a ~7-sensor budget).
func (p *Pipeline) Figure1(lambdas ...float64) (*Fig1Data, error) {
	if len(lambdas) == 0 {
		lambdas = []float64{2, 4}
	}
	d := &Fig1Data{Core: 0, Lambdas: lambdas, Threshold: p.threshold()}
	pls, err := p.PlaceCorePath(0, lambdas)
	if err != nil {
		return nil, err
	}
	for _, pl := range pls {
		d.Norms = append(d.Norms, pl.GroupNorms)
		d.Selected = append(d.Selected, pl.LocalIdx)
	}
	return d, nil
}

// Table1Row is one λ point of the paper's Table 1.
type Table1Row struct {
	Lambda          float64
	SensorsCore0    int
	SensorsPerCore  float64 // mean over the 8 cores
	TotalSensors    int
	RelErrorPercent float64 // aggregated over all blocks and benchmarks
}

// Table1Data is the λ sweep of Table 1.
type Table1Data struct {
	Rows []Table1Row
}

// Table1 sweeps λ (nil means the config's sweep), placing sensors in every
// core, refitting the chip predictor, and scoring the aggregated relative
// error on the pooled held-out set.
func (p *Pipeline) Table1(lambdas []float64) (*Table1Data, error) {
	if lambdas == nil {
		lambdas = p.Cfg.Lambdas
	}
	testAll := p.TestAll()
	// One pass over the whole (core, λ) grid: cores concurrent, budgets
	// warm-started along each core's path.
	byLambda, err := p.ChipPlacementPath(lambdas)
	if err != nil {
		return nil, err
	}
	var d Table1Data
	for li, l := range lambdas {
		placements := byLambda[li]
		union := unionOf(placements)
		row := Table1Row{Lambda: l, SensorsCore0: len(placements[0].LocalIdx), TotalSensors: len(union)}
		row.SensorsPerCore = float64(len(union)) / float64(len(placements))
		if len(union) == 0 {
			row.RelErrorPercent = 100
		} else {
			pred, err := p.BuildChipPredictor(union)
			if err != nil {
				return nil, err
			}
			row.RelErrorPercent = 100 * p.RelErrorOn(pred, testAll)
		}
		d.Rows = append(d.Rows, row)
	}
	return &d, nil
}

// Fig2Data is the paper's Figure 2: the real voltage trace at one critical
// node against model predictions at two sensor budgets.
type Fig2Data struct {
	Bench     string
	BlockID   int
	BlockName string
	Steps     int
	DT        float64
	Real      []float64
	Pred      map[int][]float64 // sensors-per-core -> predicted trace
}

// Figure2 simulates a fresh window of one benchmark and predicts the
// critical-node trace of blockID with each per-core sensor budget in counts
// (defaults: the paper's 2 and 7).
func (p *Pipeline) Figure2(benchIdx, blockID, steps int, counts ...int) (*Fig2Data, error) {
	if benchIdx < 0 || benchIdx >= len(p.Bench) {
		return nil, fmt.Errorf("experiments: benchmark index %d out of range", benchIdx)
	}
	if blockID < 0 || blockID >= p.Chip.NumBlocks() {
		return nil, fmt.Errorf("experiments: block %d out of range", blockID)
	}
	if len(counts) == 0 {
		counts = []int{2, 7}
	}
	type predictorAt struct {
		q    int
		pred *core.Predictor
	}
	var preds []predictorAt
	for _, q := range counts {
		_, union, err := p.ChipPlacementCount(q)
		if err != nil {
			return nil, err
		}
		pr, err := p.BuildChipPredictor(union)
		if err != nil {
			return nil, err
		}
		preds = append(preds, predictorAt{q: q, pred: pr})
	}

	d := &Fig2Data{
		Bench:     p.Bench[benchIdx].Name,
		BlockID:   blockID,
		BlockName: p.Chip.Blocks[blockID].Name,
		Steps:     steps,
		DT:        p.Cfg.DT,
		Real:      make([]float64, 0, steps),
		Pred:      make(map[int][]float64, len(counts)),
	}
	for _, pa := range preds {
		d.Pred[pa.q] = make([]float64, 0, steps)
	}
	allCand := make([]float64, len(p.Grid.Candidates))
	err := p.simulate(p.Bench[benchIdx], runTrace, steps, func(t int, v []float64) {
		d.Real = append(d.Real, v[p.CritNodes[blockID]])
		for i, nd := range p.Grid.Candidates {
			allCand[i] = v[nd]
		}
		for _, pa := range preds {
			f := pa.pred.PredictFromCandidates(allCand)
			d.Pred[pa.q] = append(d.Pred[pa.q], f[blockID])
		}
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// Fig3Sensor locates one placed sensor for Figure 3.
type Fig3Sensor struct {
	CandIdx      int     // index into grid.Candidates
	X, Y         float64 // die position, mm
	NearestBlock string
	Unit         floorplan.Unit
}

// Fig3Data is the paper's Figure 3: where Eagle-Eye and the proposed
// approach put the same number of sensors in one core.
type Fig3Data struct {
	Core           int
	Q              int
	Proposed       []Fig3Sensor
	EagleEye       []Fig3Sensor
	ProposedByUnit map[floorplan.Unit]int
	EagleByUnit    map[floorplan.Unit]int
}

// Figure3 places q sensors in core c with both approaches (default q = 7,
// as in the paper).
func (p *Pipeline) Figure3(c, q int) (*Fig3Data, error) {
	pl, err := p.PlaceCoreCount(c, q)
	if err != nil {
		return nil, err
	}
	ds, candIdx := p.CoreDataset(c, p.Train)
	ee := eagleeye.Place(ds.X, ds.F, p.Cfg.Vth, q)

	d := &Fig3Data{
		Core: c, Q: q,
		ProposedByUnit: make(map[floorplan.Unit]int),
		EagleByUnit:    make(map[floorplan.Unit]int),
	}
	for _, ci := range pl.CandIdx {
		s := p.describeSensor(ci)
		d.Proposed = append(d.Proposed, s)
		d.ProposedByUnit[s.Unit]++
	}
	for _, li := range ee.Selected {
		s := p.describeSensor(candIdx[li])
		d.EagleEye = append(d.EagleEye, s)
		d.EagleByUnit[s.Unit]++
	}
	return d, nil
}

func (p *Pipeline) describeSensor(candIdx int) Fig3Sensor {
	node := p.Grid.Candidates[candIdx]
	x, y := p.Grid.NodePos(node)
	blk, _ := p.Chip.NearestBlock(x, y)
	return Fig3Sensor{CandIdx: candIdx, X: x, Y: y, NearestBlock: blk.Name, Unit: blk.Unit}
}

// Table2Row is one benchmark of the paper's Table 2.
type Table2Row struct {
	Bench    string
	EagleEye detect.Rates
	Proposed detect.Rates
}

// Table2Data compares detection error rates per benchmark at a fixed sensor
// budget.
type Table2Data struct {
	SensorsPerCore int
	TotalSensors   int
	Rows           []Table2Row
}

// Table2 reproduces Table 2: both approaches get the same total sensor
// budget (q per core for the proposed method; the same chip-wide total for
// Eagle-Eye's global greedy), then every benchmark's held-out run is scored
// with the paper's three error rates.
func (p *Pipeline) Table2(q int) (*Table2Data, error) {
	_, union, err := p.ChipPlacementCount(q)
	if err != nil {
		return nil, err
	}
	pred, err := p.BuildChipPredictor(union)
	if err != nil {
		return nil, err
	}
	ee := eagleeye.Place(p.Train.CandV, p.Train.CritV, p.Cfg.Vth, len(union))

	d := &Table2Data{SensorsPerCore: q, TotalSensors: len(union)}
	for bi, s := range p.TestByBench {
		truth := detect.TruthFromVoltages(s.CritV, p.Cfg.Vth)
		predicted := p.PredictTest(pred, s)
		row := Table2Row{
			Bench:    p.Bench[bi].Name,
			Proposed: detect.Score(truth, detect.AlarmsFromPredictions(predicted, p.Cfg.Vth)),
			EagleEye: detect.Score(truth, ee.Alarms(s.CandV)),
		}
		d.Rows = append(d.Rows, row)
	}
	return d, nil
}

// Fig4Point is one sensor-budget point of Figure 4.
type Fig4Point struct {
	TotalSensors int
	EagleEye     detect.Rates
	Proposed     detect.Rates
}

// Fig4Data sweeps the sensor budget for one benchmark.
type Fig4Data struct {
	Bench  string
	Points []Fig4Point
}

// Figure4 reproduces Figure 4 for the given benchmark: error rates versus
// the total number of allocated sensors. perCore lists the per-core budgets
// to sweep (defaults 1..6).
func (p *Pipeline) Figure4(benchIdx int, perCore ...int) (*Fig4Data, error) {
	if benchIdx < 0 || benchIdx >= len(p.Bench) {
		return nil, fmt.Errorf("experiments: benchmark index %d out of range", benchIdx)
	}
	if len(perCore) == 0 {
		perCore = []int{1, 2, 3, 4, 5, 6}
	}
	s := p.TestByBench[benchIdx]
	truth := detect.TruthFromVoltages(s.CritV, p.Cfg.Vth)
	d := &Fig4Data{Bench: p.Bench[benchIdx].Name}
	for _, q := range perCore {
		_, union, err := p.ChipPlacementCount(q)
		if err != nil {
			return nil, err
		}
		pred, err := p.BuildChipPredictor(union)
		if err != nil {
			return nil, err
		}
		ee := eagleeye.Place(p.Train.CandV, p.Train.CritV, p.Cfg.Vth, len(union))
		pt := Fig4Point{
			TotalSensors: len(union),
			Proposed:     detect.Score(truth, detect.AlarmsFromPredictions(p.PredictTest(pred, s), p.Cfg.Vth)),
			EagleEye:     detect.Score(truth, ee.Alarms(s.CandV)),
		}
		d.Points = append(d.Points, pt)
	}
	return d, nil
}

// GLDirectComparison quantifies the Section 2.3 bias: relative error of the
// biased Eq. 14 model versus the OLS refit, per core, at budget λ. It is the
// ablation DESIGN.md calls "GL-direct vs OLS refit".
type GLDirectComparison struct {
	Lambda       float64
	RelErrGL     float64
	RelErrRefit  float64
	SensorsCore0 int
}

// AblationGLDirect runs the comparison on core 0.
func (p *Pipeline) AblationGLDirect(lambda float64) (*GLDirectComparison, error) {
	ds, _ := p.glTrainDataset(0)
	pl, err := core.PlaceSensors(ds, core.Config{Lambda: lambda, Threshold: p.Cfg.Threshold, Solver: p.Cfg.Solver})
	if err != nil {
		return nil, err
	}
	if len(pl.Selected) == 0 {
		return nil, fmt.Errorf("experiments: λ=%v selected no sensors", lambda)
	}
	fullTrain, _ := p.CoreDataset(0, p.Train)
	pred, err := core.BuildPredictor(fullTrain, pl.Selected)
	if err != nil {
		return nil, err
	}
	glp, err := core.BuildGLDirect(pl)
	if err != nil {
		return nil, err
	}
	test, _ := p.CoreDataset(0, p.TestAll())
	return &GLDirectComparison{
		Lambda:       lambda,
		SensorsCore0: len(pl.Selected),
		RelErrRefit:  relErr(pred.PredictDataset(test), test.F),
		RelErrGL:     relErr(glp.PredictDataset(test), test.F),
	}, nil
}

func relErr(pred, truth *mat.Matrix) float64 {
	den := truth.FrobeniusNorm()
	if den == 0 {
		return 0
	}
	return mat.FrobeniusDistance(pred, truth) / den
}
