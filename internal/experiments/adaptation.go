package experiments

import (
	"fmt"
	"strings"

	"voltsense/internal/core"
	"voltsense/internal/detect"
	"voltsense/internal/online"
)

// AdaptationResult is the online-recalibration ablation: a design-time model
// monitors a die whose grid electricals drifted (the process-variation
// perturbation reused as a drift injector), first statically and then with
// the internal/online shadow-refit loop fed the drifted die's labeled
// samples. It answers the deployment question the serving tier's /v1/feedback
// endpoint exists for: does streaming recalibration recover what drift cost?
type AdaptationResult struct {
	SegRSigma      float64
	SensorsPerCore int
	Sensors        int

	FeedbackSamples int
	Promotions      int
	PromotedAt      int // 1-based sample index of the first promotion; 0 = never
	FinalVersion    int
	DriftScore      float64 // residual z-score at the end of the feed

	// Nominal die, nominal-trained model: the floor everything is judged
	// against.
	BaselineRelErr float64
	Baseline       detect.Rates
	// Drifted die, static nominal-trained model: deploy-and-forget.
	DriftedRelErr float64
	Drifted       detect.Rates
	// Drifted die, the adapter's live model after the feedback feed.
	AdaptedRelErr float64
	Adapted       detect.Rates
}

// RecoveredTE reports the fraction of the drift-induced TE gap the adapted
// model closed: 1 is full recovery to the undrifted baseline, 0 is none.
func (r *AdaptationResult) RecoveredTE() float64 {
	gap := r.Drifted.TE - r.Baseline.TE
	if gap <= 0 {
		return 1
	}
	return (r.Drifted.TE - r.Adapted.TE) / gap
}

// AblationOnlineAdaptation places q sensors per core and fits the Eq. 17
// model on the nominal die, then replays the drifted die's training run
// through an online.Adapter as labeled feedback — exactly the sample stream
// POST /v1/feedback would carry. acfg tunes the loop; zero fields get
// defaults scaled to the feed length, and a zero Vth inherits the pipeline's
// emergency threshold. All three models are scored on the drifted die's
// held-out run (the baseline additionally on the nominal one).
func (p *Pipeline) AblationOnlineAdaptation(q int, sigma float64, acfg online.Config) (*AdaptationResult, error) {
	if sigma <= 0 {
		return nil, fmt.Errorf("experiments: adaptation sigma %v must be positive", sigma)
	}
	_, union, err := p.ChipPlacementCount(q)
	if err != nil {
		return nil, err
	}
	pred, err := p.BuildChipPredictor(union)
	if err != nil {
		return nil, err
	}
	// Stamp the design-time lineage: the adapter anchors its drift detector
	// on the fit-time residual statistics instead of assuming the feedback
	// stream starts healthy.
	train := &core.Dataset{X: p.Train.CandV, F: p.Train.CritV}
	residMean, residStd := pred.FitResidualStats(train)
	pred.Lineage = &core.Lineage{
		Version: 1, Source: core.LineageSourceTrain, Samples: train.X.Cols(),
		ResidMean: residMean, ResidStd: residStd,
	}

	// The drifted die: identical geometry, perturbed electricals — the same
	// construction as AblationProcessVariation, so the two studies describe
	// the same deployment scenario with and without the feedback loop.
	drifted := p.variant(sigma, sigma/2, p.Cfg.Seed+77)
	driftedTest, err := drifted.heldOut()
	if err != nil {
		return nil, fmt.Errorf("experiments: drifted die: %w", err)
	}
	feed, err := drifted.stridedTraining()
	if err != nil {
		return nil, fmt.Errorf("experiments: drifted die: %w", err)
	}
	n := feed.N()

	if acfg.Vth == 0 {
		acfg.Vth = p.Cfg.Vth
	}
	if acfg.EvalWindow == 0 {
		acfg.EvalWindow = clampInt(n/8, 32, 256)
	}
	if acfg.MinSamples == 0 {
		acfg.MinSamples = acfg.EvalWindow
	}
	if acfg.DriftWindow == 0 {
		acfg.DriftWindow = clampInt(n/16, 16, 64)
	}

	out := &AdaptationResult{
		SegRSigma:      sigma,
		SensorsPerCore: q,
		Sensors:        len(union),
	}
	nomTest := p.TestAll()
	out.BaselineRelErr = p.RelErrorOn(pred, nomTest)
	out.Baseline = scoreSet(pred, nomTest, p.Cfg.Vth)
	out.DriftedRelErr = p.RelErrorOn(pred, driftedTest)
	out.Drifted = scoreSet(pred, driftedTest, p.Cfg.Vth)

	a, err := online.NewAdapter(pred, acfg, nil)
	if err != nil {
		return nil, fmt.Errorf("experiments: adaptation loop: %w", err)
	}
	x := make([]float64, len(union))
	f := make([]float64, feed.CritV.Rows())
	for j := 0; j < n; j++ {
		for i, g := range union {
			x[i] = feed.CandV.At(g, j)
		}
		for i := range f {
			f[i] = feed.CritV.At(i, j)
		}
		res, err := a.Ingest(x, f)
		if err != nil {
			return nil, fmt.Errorf("experiments: feedback sample %d: %w", j, err)
		}
		if res.Promoted != nil {
			out.Promotions++
			if out.PromotedAt == 0 {
				out.PromotedAt = j + 1
			}
		}
	}
	st := a.Status()
	out.FeedbackSamples = n
	out.FinalVersion = st.Version
	out.DriftScore = st.DriftScore

	adapted := a.Live()
	out.AdaptedRelErr = p.RelErrorOn(adapted, driftedTest)
	out.Adapted = scoreSet(adapted, driftedTest, p.Cfg.Vth)
	return out, nil
}

// Render formats the ablation as a table plus a promotion summary line.
func (r *AdaptationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "online adaptation under grid drift (σ=%.2f, %d sensors/core, %d sensors)\n",
		r.SegRSigma, r.SensorsPerCore, r.Sensors)
	fmt.Fprintf(&b, "%-18s %10s | %8s %8s %8s\n", "model", "rel err(%)", "ME", "WAE", "TE")
	fmt.Fprintf(&b, "%-18s %10.4f | %8.4f %8.4f %8.4f\n",
		"baseline", 100*r.BaselineRelErr, r.Baseline.ME, r.Baseline.WAE, r.Baseline.TE)
	fmt.Fprintf(&b, "%-18s %10.4f | %8.4f %8.4f %8.4f\n",
		"drifted (static)", 100*r.DriftedRelErr, r.Drifted.ME, r.Drifted.WAE, r.Drifted.TE)
	fmt.Fprintf(&b, "%-18s %10.4f | %8.4f %8.4f %8.4f\n",
		"adapted (online)", 100*r.AdaptedRelErr, r.Adapted.ME, r.Adapted.WAE, r.Adapted.TE)
	if r.Promotions > 0 {
		fmt.Fprintf(&b, "promoted at sample %d of %d (%d promotion(s), final version %d); TE gap recovered %.1f%%\n",
			r.PromotedAt, r.FeedbackSamples, r.Promotions, r.FinalVersion, 100*r.RecoveredTE())
	} else {
		fmt.Fprintf(&b, "no promotion in %d feedback samples (final version %d, drift z=%.1f)\n",
			r.FeedbackSamples, r.FinalVersion, r.DriftScore)
	}
	return b.String()
}

// CSV emits the ablation for plotting, one row per model stage.
func (r *AdaptationResult) CSV() string {
	var b strings.Builder
	fmt.Fprintln(&b, "stage,rel_err,me,wae,te,promotions,promoted_at,feedback_samples")
	row := func(stage string, rel float64, d detect.Rates) {
		fmt.Fprintf(&b, "%s,%.6f,%.6f,%.6f,%.6f,%d,%d,%d\n",
			stage, rel, d.ME, d.WAE, d.TE, r.Promotions, r.PromotedAt, r.FeedbackSamples)
	}
	row("baseline", r.BaselineRelErr, r.Baseline)
	row("drifted", r.DriftedRelErr, r.Drifted)
	row("adapted", r.AdaptedRelErr, r.Adapted)
	return b.String()
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
