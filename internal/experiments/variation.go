package experiments

import (
	"fmt"

	"voltsense/internal/core"
	"voltsense/internal/detect"
	"voltsense/internal/grid"
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

	varied := p.variant(sigma, sigma/2, p.Cfg.Seed+77)
	variedTest, err := varied.heldOut()
	if err != nil {
		return nil, fmt.Errorf("experiments: varied die: %w", err)
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
	variedTrain, err := varied.stridedTraining()
	if err != nil {
		return nil, fmt.Errorf("experiments: varied die: %w", err)
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

// variant returns p's die as fabrication might return it: the same
// geometry, so candidate and critical node indices transfer, with segment
// and pad resistances varied lognormally by segSigma and padSigma from
// seed. It keeps p's critical nodes, which were chosen at design time and
// do not move with fabrication, shares Chip, Power and Bench with p, and
// simulates nothing until a collector runs on it.
func (p *Pipeline) variant(segSigma, padSigma float64, seed int64) *Pipeline {
	cfg := p.Cfg
	cfg.Grid.SegRSigma = segSigma
	cfg.Grid.PadRSigma = padSigma
	cfg.Grid.VariationSeed = seed
	return &Pipeline{
		Cfg: cfg, Chip: p.Chip, Grid: grid.Build(p.Chip, cfg.Grid),
		Power: p.Power, Bench: p.Bench, CritNodes: p.CritNodes,
	}
}

// heldOut records the held-out run on p's critical nodes (collectTest) and
// returns it pooled in TestAll's column order.
func (p *Pipeline) heldOut() (*SampleSet, error) {
	if err := p.collectTest(); err != nil {
		return nil, err
	}
	return p.TestAll(), nil
}

// stridedTraining records a training set on p's critical nodes: an even
// stride over every benchmark's training run, benchmark bi filling columns
// bi·per onward.
func (p *Pipeline) stridedTraining() (*SampleSet, error) {
	per := min(p.Cfg.TrainMaps/len(p.Bench), p.Cfg.TrainSteps)
	stride := p.Cfg.TrainSteps / per
	total := per * len(p.Bench)
	cand := mat.Zeros(len(p.Grid.Candidates), total)
	crit := mat.Zeros(len(p.CritNodes), total)
	bench := make([]int, total)
	recorded := make([]int, len(p.Bench))
	err := p.runBenchmarks(runTrain, p.Cfg.TrainSteps, nil, func(bi, t int, v []float64) {
		if recorded[bi] >= per || t%stride != 0 {
			return
		}
		col := bi*per + recorded[bi]
		p.recordColumn(cand, crit, col, v)
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
