package experiments

import (
	"fmt"
	"strings"

	"voltsense/internal/core"
	"voltsense/internal/detect"
	"voltsense/internal/mat"
	"voltsense/internal/transfer"
)

// TransferPoint is one labeled-sample budget in the few-shot sweep: the same
// n samples fit three ways — aligned against the golden prior, from scratch,
// and (implicitly, at n=0) pure prior — scored on the fielded die's held-out
// run.
type TransferPoint struct {
	Samples int

	AlignedRelErr float64
	Aligned       detect.Rates
	ScratchRelErr float64
	Scratch       detect.Rates

	// DeltaNNZ is the stored thin-artifact size in coefficients — what a
	// fleet store pays to persist this chip at this sample budget.
	DeltaNNZ int
}

// TransferResult is the fleet transfer-calibration ablation: a shared prior
// fit from a handful of golden chips, then a fielded chip (the drifted die)
// enrolled with n labeled samples for growing n. It answers the deployment
// question /v1/calibrate exists for: how few per-chip samples buy back the
// accuracy of a full per-chip training campaign?
type TransferResult struct {
	SegRSigma      float64
	SensorsPerCore int
	Sensors        int
	Goldens        int
	FeedSamples    int // labeled samples available from the fielded die

	// PriorOnly: the fielded die served straight off the golden prior mean
	// (zero per-chip samples).
	PriorRelErr float64
	Prior       detect.Rates
	// Full: the fielded die's own full-campaign fit on every available
	// labeled sample — the ceiling few-shot alignment is judged against.
	FullRelErr float64
	Full       detect.Rates

	Points []TransferPoint
}

// Recovered reports, for one sweep point, the fraction of the TE gap between
// prior-only serving and the full-campaign fit that alignment closed: 1 is
// full recovery, 0 none.
func (r *TransferResult) Recovered(pt *TransferPoint) float64 {
	gap := r.Prior.TE - r.Full.TE
	if gap <= 0 {
		return 1
	}
	return (r.Prior.TE - pt.Aligned.TE) / gap
}

// AblationTransfer fits the shared golden-chip prior from `goldens` mildly
// varied dies (the nominal die plus goldens−1 small-σ variants), then drifts
// a fielded die by sigma — the same perturbation as the adaptation ablation —
// and sweeps few-shot alignment against from-scratch fitting over the given
// labeled-sample counts. All models are scored on the fielded die's held-out
// run at the nominal critical nodes.
func (p *Pipeline) AblationTransfer(q int, sigma float64, goldens int, counts []int, tcfg transfer.AlignConfig) (*TransferResult, error) {
	if sigma <= 0 {
		return nil, fmt.Errorf("experiments: transfer sigma %v must be positive", sigma)
	}
	if goldens < 1 {
		goldens = 3
	}
	if len(counts) == 0 {
		counts = []int{4, 8, 16, 32, 64}
	}
	_, union, err := p.ChipPlacementCount(q)
	if err != nil {
		return nil, err
	}

	// Golden chips: the nominal die's fit plus mildly varied siblings, each
	// fit on its own training campaign. The mild σ models golden-sample
	// spread at the fab, not field drift.
	goldPreds := make([]*core.Predictor, 0, goldens)
	stamp := func(pred *core.Predictor, ds *core.Dataset) {
		residMean, residStd := pred.FitResidualStats(ds)
		pred.Lineage = &core.Lineage{
			Version: 1, Source: core.LineageSourceTrain, Samples: ds.X.Cols(),
			ResidMean: residMean, ResidStd: residStd,
		}
	}
	nominal, err := p.BuildChipPredictor(union)
	if err != nil {
		return nil, err
	}
	stamp(nominal, &core.Dataset{X: p.Train.CandV, F: p.Train.CritV})
	goldPreds = append(goldPreds, nominal)
	for g := 1; g < goldens; g++ {
		set, err := p.variant(sigma/4, sigma/8, p.Cfg.Seed+101+int64(g)).stridedTraining()
		if err != nil {
			return nil, fmt.Errorf("experiments: golden sibling %d: %w", g, err)
		}
		ds := &core.Dataset{X: set.CandV, F: set.CritV}
		pred, err := core.BuildPredictor(ds, union)
		if err != nil {
			return nil, fmt.Errorf("experiments: fitting golden sibling %d: %w", g, err)
		}
		stamp(pred, ds)
		goldPreds = append(goldPreds, pred)
	}
	prior, err := transfer.FitPrior(goldPreds, transfer.PriorConfig{})
	if err != nil {
		return nil, fmt.Errorf("experiments: fitting prior: %w", err)
	}

	// The fielded chip: full-σ drift, same construction and seed offset as
	// the adaptation ablation, so the two studies describe the same chip.
	fielded := p.variant(sigma, sigma/2, p.Cfg.Seed+77)
	fieldedTest, err := fielded.heldOut()
	if err != nil {
		return nil, fmt.Errorf("experiments: fielded die: %w", err)
	}
	feed, err := fielded.stridedTraining()
	if err != nil {
		return nil, fmt.Errorf("experiments: fielded die: %w", err)
	}
	n := feed.N()

	out := &TransferResult{
		SegRSigma:      sigma,
		SensorsPerCore: q,
		Sensors:        len(union),
		Goldens:        goldens,
		FeedSamples:    n,
	}

	priorPred := prior.Predictor()
	out.PriorRelErr = p.RelErrorOn(priorPred, fieldedTest)
	out.Prior = scoreSet(priorPred, fieldedTest, p.Cfg.Vth)

	fullFit, err := core.BuildPredictor(&core.Dataset{X: feed.CandV, F: feed.CritV}, union)
	if err != nil {
		return nil, fmt.Errorf("experiments: full-campaign fit: %w", err)
	}
	out.FullRelErr = p.RelErrorOn(fullFit, fieldedTest)
	out.Full = scoreSet(fullFit, fieldedTest, p.Cfg.Vth)

	// Few-shot sweep: m columns spread evenly across the fielded die's
	// labeled feed stand in for the m samples a field calibration would
	// collect. The feed is ordered by benchmark, so an even stride samples
	// every workload's operating region — a prefix would calibrate the chip
	// on one benchmark's conditions and degrade everywhere else.
	for _, m := range counts {
		if m > n {
			m = n
		}
		x := mat.Zeros(len(union), m)
		f := mat.Zeros(feed.CritV.Rows(), m)
		for j := 0; j < m; j++ {
			col := j * n / m
			for i, g := range union {
				x.Set(i, j, feed.CandV.At(g, col))
			}
			for i := 0; i < f.Rows(); i++ {
				f.Set(i, j, feed.CritV.At(i, col))
			}
		}
		al, err := transfer.AlignChip(prior, x, f, tcfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: aligning with %d samples: %w", m, err)
		}
		scratch, err := transfer.FitScratch(union, x, f)
		if err != nil {
			return nil, fmt.Errorf("experiments: scratch fit with %d samples: %w", m, err)
		}
		pt := TransferPoint{
			Samples:       m,
			AlignedRelErr: p.RelErrorOn(al.Predictor, fieldedTest),
			Aligned:       scoreSet(al.Predictor, fieldedTest, p.Cfg.Vth),
			ScratchRelErr: p.RelErrorOn(scratch, fieldedTest),
			Scratch:       scoreSet(scratch, fieldedTest, p.Cfg.Vth),
			DeltaNNZ:      al.Delta.NNZ(),
		}
		out.Points = append(out.Points, pt)
		if len(out.Points) > 1 && m == out.Points[len(out.Points)-2].Samples {
			out.Points = out.Points[:len(out.Points)-1] // counts clamped into a duplicate
		}
	}
	return out, nil
}

// Render formats the ablation as a table: prior-only and full-campaign
// anchors, then the few-shot sweep.
func (r *TransferResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet transfer calibration under drift (σ=%.2f, %d sensors/core, %d sensors, %d goldens)\n",
		r.SegRSigma, r.SensorsPerCore, r.Sensors, r.Goldens)
	fmt.Fprintf(&b, "%-22s %10s | %8s %8s %8s | %9s %9s\n",
		"model", "rel err(%)", "ME", "WAE", "TE", "recov(%)", "delta nnz")
	fmt.Fprintf(&b, "%-22s %10.4f | %8.4f %8.4f %8.4f | %9s %9s\n",
		"prior only (0 smp)", 100*r.PriorRelErr, r.Prior.ME, r.Prior.WAE, r.Prior.TE, "0.0", "-")
	for i := range r.Points {
		pt := &r.Points[i]
		fmt.Fprintf(&b, "%-22s %10.4f | %8.4f %8.4f %8.4f | %9.1f %9d\n",
			fmt.Sprintf("aligned (%d smp)", pt.Samples),
			100*pt.AlignedRelErr, pt.Aligned.ME, pt.Aligned.WAE, pt.Aligned.TE,
			100*r.Recovered(pt), pt.DeltaNNZ)
		fmt.Fprintf(&b, "%-22s %10.4f | %8.4f %8.4f %8.4f | %9s %9s\n",
			fmt.Sprintf("scratch (%d smp)", pt.Samples),
			100*pt.ScratchRelErr, pt.Scratch.ME, pt.Scratch.WAE, pt.Scratch.TE, "-", "-")
	}
	fmt.Fprintf(&b, "%-22s %10.4f | %8.4f %8.4f %8.4f | %9s %9s\n",
		fmt.Sprintf("full campaign (%d)", r.FeedSamples),
		100*r.FullRelErr, r.Full.ME, r.Full.WAE, r.Full.TE, "100.0", "-")
	return b.String()
}

// CSV emits the sweep for plotting, one row per sample budget.
func (r *TransferResult) CSV() string {
	var b strings.Builder
	fmt.Fprintln(&b, "samples,aligned_rel_err,aligned_te,scratch_rel_err,scratch_te,prior_te,full_te,recovered,delta_nnz")
	for i := range r.Points {
		pt := &r.Points[i]
		fmt.Fprintf(&b, "%d,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%d\n",
			pt.Samples, pt.AlignedRelErr, pt.Aligned.TE, pt.ScratchRelErr, pt.Scratch.TE,
			r.Prior.TE, r.Full.TE, r.Recovered(pt), pt.DeltaNNZ)
	}
	return b.String()
}
