package transfer

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"voltsense/internal/core"
	"voltsense/internal/mat"
	"voltsense/internal/ols"
)

// synthChip is a synthetic ground-truth linear chip: f = A x + c (+ noise).
type synthChip struct {
	alpha *mat.Matrix // k×q
	c     []float64
}

func makeChip(rng *rand.Rand, q, k int) *synthChip {
	alpha := mat.Zeros(k, q)
	c := make([]float64, k)
	for i := 0; i < k; i++ {
		for j := 0; j < q; j++ {
			alpha.Set(i, j, 0.3+0.4*rng.Float64())
		}
		c[i] = 0.05 * rng.NormFloat64()
	}
	return &synthChip{alpha: alpha, c: c}
}

// perturb returns a drifted copy: every coefficient moved by sigma relative.
func (ch *synthChip) perturb(rng *rand.Rand, sigma float64) *synthChip {
	out := &synthChip{alpha: ch.alpha.Clone(), c: append([]float64(nil), ch.c...)}
	for i := 0; i < out.alpha.Rows(); i++ {
		row := out.alpha.Row(i)
		for j := range row {
			row[j] *= 1 + sigma*rng.NormFloat64()
		}
		out.c[i] += sigma * 0.05 * rng.NormFloat64()
	}
	return out
}

// sample draws n labeled samples with sensor readings around 1 V.
func (ch *synthChip) sample(rng *rand.Rand, n int, noise float64) (x, f *mat.Matrix) {
	q := ch.alpha.Cols()
	k := ch.alpha.Rows()
	x = mat.Zeros(q, n)
	f = mat.Zeros(k, n)
	for s := 0; s < n; s++ {
		for i := 0; i < q; i++ {
			x.Set(i, s, 1.0+0.05*rng.NormFloat64())
		}
		for i := 0; i < k; i++ {
			v := ch.c[i]
			row := ch.alpha.Row(i)
			for j := 0; j < q; j++ {
				v += row[j] * x.At(j, s)
			}
			f.Set(i, s, v+noise*rng.NormFloat64())
		}
	}
	return x, f
}

// predictor wraps the chip's exact coefficients, with optional lineage.
func (ch *synthChip) predictor(sel []int, lin *core.Lineage) *core.Predictor {
	return &core.Predictor{
		Selected: append([]int(nil), sel...),
		Model:    &ols.Model{Alpha: ch.alpha.Clone(), C: append([]float64(nil), ch.c...)},
		Lineage:  lin,
	}
}

// rmse evaluates a predictor's root-mean-square error over labeled samples.
func rmse(p *core.Predictor, x, f *mat.Matrix) float64 {
	n := x.Cols()
	k := f.Rows()
	q := x.Rows()
	xs := make([]float64, q)
	var sum float64
	for s := 0; s < n; s++ {
		for i := 0; i < q; i++ {
			xs[i] = x.At(i, s)
		}
		pred := p.Model.Predict(xs)
		for i := 0; i < k; i++ {
			d := pred[i] - f.At(i, s)
			sum += d * d
		}
	}
	return math.Sqrt(sum / float64(n*k))
}

func seq(q int) []int {
	s := make([]int, q)
	for i := range s {
		s[i] = i
	}
	return s
}

func TestFitPriorPoolsGoldens(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q, k := 3, 4
	sel := seq(q)
	g1 := makeChip(rng, q, k)
	g2 := g1.perturb(rng, 0.05)
	p, err := FitPrior([]*core.Predictor{
		g1.predictor(sel, &core.Lineage{Version: 1, Source: core.LineageSourceTrain, ResidMean: 0.004, ResidStd: 0.001}),
		g2.predictor(sel, nil),
	}, PriorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Goldens != 2 || p.Q() != q || p.K() != k {
		t.Fatalf("prior shape: goldens=%d q=%d k=%d", p.Goldens, p.Q(), p.K())
	}
	wantMean := (g1.alpha.At(1, 2) + g2.alpha.At(1, 2)) / 2
	if got := p.Mean.At(1, 2); math.Abs(got-wantMean) > 1e-12 {
		t.Fatalf("pooled mean %v, want %v", got, wantMean)
	}
	for j, v := range p.Prec {
		if !(v > 0) {
			t.Fatalf("precision[%d] = %v not positive", j, v)
		}
	}
	if !(p.NoiseVar > 0) {
		t.Fatalf("noise variance %v", p.NoiseVar)
	}

	// Mismatched selections must be rejected.
	other := g2.predictor([]int{0, 1, 5}, nil)
	if _, err := FitPrior([]*core.Predictor{g1.predictor(sel, nil), other}, PriorConfig{}); err == nil {
		t.Fatal("FitPrior accepted goldens with different sensor selections")
	}
}

func TestAlignChipConvergesToFieldedChip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	q, k := 3, 4
	sel := seq(q)
	golden := makeChip(rng, q, k)
	fielded := golden.perturb(rng, 0.2)
	prior, err := FitPrior([]*core.Predictor{golden.predictor(sel, nil)}, PriorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	x, f := fielded.sample(rng, 400, 1e-4)
	tx, tf := fielded.sample(rng, 200, 0)

	al, err := AlignChip(prior, x, f, AlignConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if al.PriorOnly || al.Samples != 400 {
		t.Fatalf("alignment: priorOnly=%v samples=%d", al.PriorOnly, al.Samples)
	}
	priorErr := rmse(prior.Predictor(), tx, tf)
	alignedErr := rmse(al.Predictor, tx, tf)
	if alignedErr > priorErr/5 {
		t.Fatalf("aligned rmse %v did not improve enough on prior-only %v", alignedErr, priorErr)
	}
	lin := al.Predictor.Lineage
	if lin == nil || lin.Source != core.LineageSourcePrior || lin.Samples != 400 || lin.Prior != prior.Fingerprint() {
		t.Fatalf("aligned lineage %+v", lin)
	}
}

func TestAlignChipEvidenceGate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q, k := 3, 4
	sel := seq(q)
	golden := makeChip(rng, q, k)
	prior, err := FitPrior([]*core.Predictor{golden.predictor(sel, nil)}, PriorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fielded := golden.perturb(rng, 0.3)
	x, f := fielded.sample(rng, 2, 1e-4)
	al, err := AlignChip(prior, x, f, AlignConfig{MinSamples: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !al.PriorOnly {
		t.Fatal("2 samples below MinSamples=4 must hold the prior")
	}
	pp := prior.Predictor()
	if d := mat.MaxAbsDiff(al.Predictor.Model.Alpha, pp.Model.Alpha); d > 1e-9 {
		t.Fatalf("gated alignment moved alpha off the prior by %v", d)
	}
	if len(al.Delta.Rows) != 0 {
		t.Fatalf("gated alignment produced a non-empty delta (%d rows)", len(al.Delta.Rows))
	}

	// Zero samples (enrollment before any labels) is also valid.
	al0, err := AlignChip(prior, nil, nil, AlignConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !al0.PriorOnly || al0.Samples != 0 {
		t.Fatalf("zero-sample alignment: priorOnly=%v samples=%d", al0.PriorOnly, al0.Samples)
	}
}

func TestAlignChipFewShotBeatsScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	q, k := 6, 5
	sel := seq(q)
	golden := makeChip(rng, q, k)
	fielded := golden.perturb(rng, 0.1)
	prior, err := FitPrior([]*core.Predictor{golden.predictor(sel, nil)}, PriorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tx, tf := fielded.sample(rng, 300, 0)
	for _, n := range []int{4, 8, 16} {
		x, f := fielded.sample(rng, n, 2e-3)
		al, err := AlignChip(prior, x, f, AlignConfig{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		scratch, err := FitScratch(sel, x, f)
		if err != nil {
			t.Fatalf("n=%d scratch: %v", n, err)
		}
		ae := rmse(al.Predictor, tx, tf)
		se := rmse(scratch, tx, tf)
		if ae >= se {
			t.Fatalf("n=%d: aligned rmse %v not below scratch rmse %v", n, ae, se)
		}
	}
}

func TestDeltaRoundTripThroughArtifact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q, k := 4, 3
	sel := []int{2, 5, 7, 11}
	golden := makeChip(rng, q, k)
	fielded := golden.perturb(rng, 0.15)
	prior, err := FitPrior([]*core.Predictor{golden.predictor(sel, nil)}, PriorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	x, f := fielded.sample(rng, 32, 1e-3)
	cfg := AlignConfig{DeltaTol: 1e-6, Version: 3, Parent: 2}
	al, err := AlignChip(prior, x, f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if al.Delta.NNZ() == 0 {
		t.Fatal("alignment off a drifted chip produced an empty delta")
	}

	var buf bytes.Buffer
	if err := SaveDelta(&buf, al.Delta, al.Predictor.Lineage); err != nil {
		t.Fatal(err)
	}
	d2, lin, err := LoadDelta(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if lin == nil || lin.Version != 3 || lin.Parent != 2 || lin.Source != core.LineageSourcePrior || lin.Samples != 32 {
		t.Fatalf("round-tripped lineage %+v", lin)
	}
	resolved, err := d2.Resolve(prior, lin)
	if err != nil {
		t.Fatal(err)
	}
	// The sparsification guarantee: every coefficient within tol·rowScale.
	for i := 0; i < k; i++ {
		mrow := prior.Mean.Row(i)
		scale := 0.0
		for _, v := range mrow {
			if a := math.Abs(v); a > scale {
				scale = a
			}
		}
		for j := 0; j < q; j++ {
			d := math.Abs(resolved.Model.Alpha.At(i, j) - al.Predictor.Model.Alpha.At(i, j))
			if d > cfg.DeltaTol*scale+1e-15 {
				t.Fatalf("resolved alpha[%d][%d] off by %v (> %v)", i, j, d, cfg.DeltaTol*scale)
			}
		}
		if d := math.Abs(resolved.Model.C[i] - al.Predictor.Model.C[i]); d > cfg.DeltaTol*scale+1e-15 {
			t.Fatalf("resolved c[%d] off by %v", i, d)
		}
	}
	if len(resolved.Selected) != q || resolved.Selected[0] != 2 {
		t.Fatalf("resolved selection %v", resolved.Selected)
	}

	// A different prior must be refused.
	g2 := makeChip(rng, q, k)
	other, err := FitPrior([]*core.Predictor{g2.predictor(sel, nil)}, PriorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d2.Resolve(other, lin); err == nil {
		t.Fatal("Resolve accepted a delta computed against a different prior")
	}
}

func TestPriorSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	golden := makeChip(rng, 3, 4)
	prior, err := FitPrior([]*core.Predictor{golden.predictor([]int{1, 4, 9}, nil)}, PriorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := prior.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), PriorFormat) {
		t.Fatalf("saved prior does not carry format tag %q", PriorFormat)
	}
	p2, err := LoadPrior(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if p2.Fingerprint() != prior.Fingerprint() {
		t.Fatal("fingerprint changed across save/load")
	}
	if d := mat.MaxAbsDiff(p2.Mean, prior.Mean); d > 0 {
		t.Fatalf("prior mean changed across save/load by %v", d)
	}

	// Corruption must fail at load.
	for _, bad := range []string{
		`{"format":"voltsense-predictor/v1"}`,
		`{"format":"voltsense-prior/v1","selected_sensors":[3,1],"mean":[[1,2,3]],"precision":[1,1,1],"noise_var":1e-4,"goldens":1}`,
		`{"format":"voltsense-prior/v1","selected_sensors":[1,3],"mean":[[1,2,3]],"precision":[1,0,1],"noise_var":1e-4,"goldens":1}`,
		`{"format":"voltsense-prior/v1","selected_sensors":[1,3],"mean":[[1,2]],"precision":[1,1,1],"noise_var":1e-4,"goldens":1}`,
	} {
		if _, err := LoadPrior(strings.NewReader(bad)); err == nil {
			t.Fatalf("LoadPrior accepted corrupt artifact %s", bad)
		}
	}
}
