package experiments

import (
	"fmt"

	"voltsense/internal/core"
	"voltsense/internal/detect"
	"voltsense/internal/mat"
	"voltsense/internal/ols"
)

// VariationResult is the deployment-robustness study: the model is trained
// on the nominal die's simulation, then monitors a die whose grid came back
// from fabrication with lognormal resistance variation.
type VariationResult struct {
	SegRSigma      float64
	SensorsPerCore int

	// Nominal die (the paper's setting).
	NominalRelErr float64
	NominalRates  detect.Rates

	// Varied die, nominal-trained model (deploy without recalibration).
	VariedRelErr float64
	VariedRates  detect.Rates

	// Varied die, coefficients refit on varied-die data with the SAME
	// sensor locations (post-silicon recalibration).
	RecalRelErr float64
	RecalRates  detect.Rates
}

// AblationProcessVariation evaluates what fabrication variation does to a
// design-time model: sensor placement and OLS coefficients come from the
// nominal pipeline; the test (and recalibration training) data come from a
// second grid whose segment and pad resistances vary lognormally with the
// given sigma.
func (p *Pipeline) AblationProcessVariation(q int, sigma float64) (*VariationResult, error) {
	if sigma <= 0 {
		return nil, fmt.Errorf("experiments: variation sigma %v must be positive", sigma)
	}
	_, union, err := p.ChipPlacementCount(q)
	if err != nil {
		return nil, err
	}
	pred, err := p.BuildChipPredictor(union)
	if err != nil {
		return nil, err
	}

	// The varied die: identical geometry (so candidate/critical node
	// indices transfer), perturbed electricals.
	cfg := p.Cfg
	cfg.Grid.SegRSigma = sigma
	cfg.Grid.PadRSigma = sigma / 2
	cfg.Grid.VariationSeed = p.Cfg.Seed + 77
	varied, err := New(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: building varied die: %w", err)
	}
	// Keep the NOMINAL critical nodes: the monitoring targets were chosen
	// at design time and do not move with fabrication.
	variedTest, err := p.resampleOnNodes(varied, p.CritNodes)
	if err != nil {
		return nil, err
	}

	out := &VariationResult{SegRSigma: sigma, SensorsPerCore: q}

	nomTest := p.TestAll()
	out.NominalRelErr = p.RelErrorOn(pred, nomTest)
	out.NominalRates = scoreSet(pred, nomTest, p.Cfg.Vth)

	out.VariedRelErr = ols.RelativeError(pred.PredictDataset(
		&core.Dataset{X: variedTest.CandV, F: variedTest.CritV}), variedTest.CritV)
	out.VariedRates = scoreSet(pred, variedTest, p.Cfg.Vth)

	// Recalibration: same sensors, coefficients refit on the varied die's
	// training run (which post-silicon bring-up would measure).
	variedTrain, err := p.resampleTrainOnNodes(varied, p.CritNodes)
	if err != nil {
		return nil, err
	}
	recal, err := core.BuildPredictor(&core.Dataset{X: variedTrain.CandV, F: variedTrain.CritV}, union)
	if err != nil {
		return nil, fmt.Errorf("experiments: recalibration: %w", err)
	}
	out.RecalRelErr = ols.RelativeError(recal.PredictDataset(
		&core.Dataset{X: variedTest.CandV, F: variedTest.CritV}), variedTest.CritV)
	out.RecalRates = scoreSet(recal, variedTest, p.Cfg.Vth)
	return out, nil
}

// resampleOnNodes re-extracts the varied pipeline's pooled test set with the
// nominal critical nodes (the varied pipeline recorded its own worst-droop
// nodes, which post-fabrication monitoring cannot know): a dedicated run
// over the identical candidate geometry, benchmark after benchmark in the
// column order of TestAll.
func (p *Pipeline) resampleOnNodes(varied *Pipeline, critNodes []int) (*SampleSet, error) {
	per := varied.Cfg.TestSteps
	stride := varied.Cfg.TestStride
	return varied.recordOnNodes(runTest, per*stride, per, critNodes, func(t int) bool { return t%stride == 0 })
}

// resampleTrainOnNodes records a varied-die training set on the nominal
// critical nodes: an even stride over every benchmark's training run.
func (p *Pipeline) resampleTrainOnNodes(varied *Pipeline, critNodes []int) (*SampleSet, error) {
	per := min(varied.Cfg.TrainMaps/len(varied.Bench), varied.Cfg.TrainSteps)
	stride := varied.Cfg.TrainSteps / per
	return varied.recordOnNodes(runTrain, varied.Cfg.TrainSteps, per, critNodes, func(t int) bool { return t%stride == 0 })
}

// recordOnNodes simulates run `run` of every benchmark for steps steps and
// records the first per post-warmup maps whose step keep accepts, on the
// candidates and the given critical nodes: benchmark bi fills columns
// bi·per onward.
func (p *Pipeline) recordOnNodes(run, steps, per int, critNodes []int, keep func(t int) bool) (*SampleSet, error) {
	total := per * len(p.Bench)
	cand := mat.Zeros(len(p.Grid.Candidates), total)
	crit := mat.Zeros(len(critNodes), total)
	bench := make([]int, total)
	recorded := make([]int, len(p.Bench))
	err := p.runBenchmarks(run, steps, nil, func(bi, t int, v []float64) {
		if recorded[bi] >= per || !keep(t) {
			return
		}
		col := bi*per + recorded[bi]
		for i, nd := range p.Grid.Candidates {
			cand.Set(i, col, v[nd])
		}
		for i, nd := range critNodes {
			crit.Set(i, col, v[nd])
		}
		bench[col] = bi
		recorded[bi]++
	})
	if err != nil {
		return nil, err
	}
	return &SampleSet{CandV: cand, CritV: crit, Bench: bench}, nil
}

func scoreSet(pred *core.Predictor, s *SampleSet, vth float64) detect.Rates {
	truth := detect.TruthFromVoltages(s.CritV, vth)
	predicted := pred.PredictDataset(&core.Dataset{X: s.CandV, F: s.CritV})
	return detect.Score(truth, detect.AlarmsFromPredictions(predicted, vth))
}
