package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"voltsense/internal/core"
	"voltsense/internal/experiments"
	"voltsense/internal/loadgen"
	"voltsense/internal/monitor"
	"voltsense/internal/serve"
	"voltsense/internal/transfer"
)

// sample is one held-out voltage map as the serving workloads replay it:
// the served sensors' readings, the true critical-node voltages, and the
// request bodies and expected answers built from them.
type sample struct {
	x, f []float64
	body []byte // /v1/predict body, batch 1
	line []byte // one NDJSON /v1/stream input line
	fb   []byte // /v1/feedback body carrying this map as one labeled sample
	want []byte // JSON of the served model's prediction: the exact voltages array
}

// fitted is what the serving set-up fits from the quick pipeline.
type fitted struct {
	pipe   *experiments.Pipeline
	union  []int
	art    []byte // the served voltsense-predictor/v1 artifact
	prior  *transfer.SharedPrior
	vth    float64
	vdd    float64
	blocks int
}

// fitServing fits the served artifact: Q = perCore × cores sensors by
// group-lasso count placement, the Eq. 17 refit with leave-k-out fallbacks
// and residual lineage, and a golden prior pooled from three goldens fitted
// on disjoint benchmark subsets with the same sensors. With a tracer the
// pipeline is the traced substrate replay and every layer call gets a span.
func fitServing(tr *tracer, cfg experiments.Config, sc scale) (*fitted, error) {
	fit := &fitted{vth: cfg.Vth, vdd: cfg.Grid.VDD}
	var err error
	if tr == nil {
		if fit.pipe, err = experiments.New(cfg); err != nil {
			return nil, err
		}
		if _, fit.union, err = fit.pipe.ChipPlacementCount(sc.perCore); err != nil {
			return nil, err
		}
	} else {
		tr.do(0, "experiments.new", 0, func(id int32) { fit.pipe, err = replayNew(tr, id, cfg) })
		if err != nil {
			return nil, err
		}
		p := fit.pipe
		perCore := make([][]int, len(p.Chip.Cores))
		tr.do(0, "experiments.place", 0, func(id int32) {
			err = forEachCore(p, func(c int) error {
				var err error
				perCore[c], err = newCoreSolver(tr, id, p, c).count(tr, id, sc.perCore, threshold(cfg))
				return err
			})
		})
		if err != nil {
			return nil, err
		}
		for _, sel := range perCore {
			fit.union = append(fit.union, sel...)
		}
		sort.Ints(fit.union)
	}
	p := fit.pipe
	fit.blocks = p.Chip.NumBlocks()
	train := &core.Dataset{X: p.Train.CandV, F: p.Train.CritV}
	var pred *core.Predictor
	tr.do(0, "ols.refit", 0, func(int32) { pred, err = core.BuildPredictorWithFallbacks(train, fit.union, sc.fallback) })
	if err != nil {
		return nil, err
	}
	stamp(tr, pred, train)

	goldens := make([]*core.Predictor, 3)
	for g := range goldens {
		var cols []int
		for j, bi := range p.Train.Bench {
			if bi%len(goldens) == g {
				cols = append(cols, j)
			}
		}
		ds := train.Subset(cols)
		tr.do(0, "ols.refit", 0, func(int32) { goldens[g], err = core.BuildPredictor(ds, fit.union) })
		if err != nil {
			return nil, fmt.Errorf("golden %d: %w", g, err)
		}
		stamp(tr, goldens[g], ds)
	}
	tr.do(0, "transfer.prior", 0, func(int32) { fit.prior, err = transfer.FitPrior(goldens, transfer.PriorConfig{}) })
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := pred.Save(&buf); err != nil {
		return nil, err
	}
	fit.art = buf.Bytes()
	return fit, nil
}

// stamp records the fit's residual statistics in a training lineage, as the
// offline tools do, so the online drift score has its baseline.
func stamp(tr *tracer, pred *core.Predictor, ds *core.Dataset) {
	tr.do(0, "core.predict_dataset", 0, func(int32) {
		mean, std := pred.FitResidualStats(ds)
		pred.Lineage = &core.Lineage{Version: 1, Source: core.LineageSourceTrain, Samples: ds.X.Cols(), ResidMean: mean, ResidStd: std}
	})
}

// fleet is a running in-process server over a tenant store, plus the
// replayed inputs and the answers read-only tenants must give.
type fleet struct {
	fit     *fitted
	dir     string
	srv     *serve.Server
	target  loadgen.Target
	stop    func()
	pred    *core.Predictor // the artifact as the server loads it
	tenants []string
	// readOnly tenants never take writes, so each 200 must carry exactly
	// pred's answer: prefix[t] + sample.want + "]}\n".
	readOnly map[string]bool
	prefix   map[string][]byte
	samples  []sample
}

// startFleet writes one copy of the artifact per tenant into a fresh store,
// starts the server in fleet mode (with online adaptation and the golden
// prior when writes is set), serves it in process and warms every tenant
// with one prediction.
func startFleet(fit *fitted, dir string, sc scale, writes bool, seed int64) (*fleet, error) {
	fl := &fleet{fit: fit, dir: dir, readOnly: map[string]bool{}, prefix: map[string][]byte{}}
	for i := 0; i < sc.tenants; i++ {
		id := fmt.Sprintf("chip%02d", i)
		fl.tenants = append(fl.tenants, id)
		// With writes, the second half of the fleet takes feedback and
		// calibration; the first half stays read-only.
		fl.readOnly[id] = !writes || i < sc.tenants/2
		if err := os.WriteFile(filepath.Join(dir, id+".json"), fit.art, 0o644); err != nil {
			return nil, err
		}
	}
	var err error
	if fl.pred, err = core.LoadPredictor(bytes.NewReader(fit.art)); err != nil {
		return nil, err
	}
	cfg := serve.Config{
		StoreDir:   dir,
		MaxTenants: 2 * sc.tenants,
		Monitor:    monitor.Config{Vth: fit.vth, ClearMargin: 0.02, ClearCycles: 2},
	}
	if writes {
		cfg.Adapt = true
		cfg.Prior = fit.prior
	}
	if fl.srv, err = serve.New(cfg); err != nil {
		return nil, err
	}
	fl.target, fl.stop = loadgen.ServeInProcess(fl.srv.Handler())
	if t, ok := fl.target.Client.Transport.(*http.Transport); ok {
		t.MaxConnsPerHost = sc.clients
		t.MaxIdleConnsPerHost = sc.clients
	}
	if err := fl.buildSamples(seed); err != nil {
		fl.close()
		return nil, err
	}
	for i, id := range fl.tenants {
		if err := fl.warm(id, &fl.samples[i%len(fl.samples)]); err != nil {
			fl.close()
			return nil, err
		}
	}
	return fl, nil
}

func (fl *fleet) close() {
	fl.stop()
	os.RemoveAll(fl.dir)
}

// overshootFrac is how far above VDD a write tenant's answer may read. A
// few-shot calibrated model is a linear fit to 16 samples and reads above
// VDD on quiet cycles: at most 11.1% over 29 serve-mixed runs at seeds 1–8,
// traced and untraced (100 000 to 300 000 checked answers each), and at
// most 9.7% over 20 runs at seeds 21–40; most runs stay within 5.5%. The
// check is for garbage, not for model accuracy.
const overshootFrac = 0.15

// maxSamples bounds the replayed held-out maps, keeping the harness's own
// heap (and so its share of garbage-collection work) small next to the
// server's.
const maxSamples = 1024

// buildSamples draws up to maxSamples of every benchmark's pooled held-out
// maps in a seed-driven order, precomputes request bodies and expected
// answers, and then drops the pipeline.
func (fl *fleet) buildSamples(seed int64) error {
	defer func() { fl.fit.pipe = nil }()
	p := fl.fit.pipe
	var all []sample
	for _, s := range p.TestByBench {
		for j := 0; j < s.N(); j++ {
			x := make([]float64, len(fl.fit.union))
			for i, c := range fl.fit.union {
				x[i] = s.CandV.At(c, j)
			}
			all = append(all, sample{x: x, f: s.CritV.Col(j)})
		}
	}
	order := rand.New(rand.NewSource(seed)).Perm(len(all))
	order = order[:min(len(order), maxSamples)]
	fl.samples = make([]sample, len(order))
	for i, j := range order {
		s := all[j]
		var err error
		if s.body, err = json.Marshal(map[string][][]float64{"readings": {s.x}}); err != nil {
			return err
		}
		line, err := json.Marshal(map[string][]float64{"readings": s.x})
		if err != nil {
			return err
		}
		s.line = append(line, '\n')
		if s.fb, err = labeledBody(all[j:j+1], 0, 1); err != nil {
			return err
		}
		if s.want, err = json.Marshal(fl.pred.Predict(s.x)); err != nil {
			return err
		}
		fl.samples[i] = s
	}
	if len(fl.samples) == 0 {
		return fmt.Errorf("no held-out samples")
	}
	return nil
}

// labeledBody is a /v1/feedback or /v1/calibrate body carrying n labeled
// samples starting at first (wrapping).
func labeledBody(samples []sample, first, n int) ([]byte, error) {
	type labeled struct {
		Readings []float64 `json:"readings"`
		Voltages []float64 `json:"voltages"`
	}
	req := struct {
		Samples []labeled `json:"samples"`
	}{}
	for i := 0; i < n; i++ {
		s := &samples[(first+i)%len(samples)]
		req.Samples = append(req.Samples, labeled{s.x, s.f})
	}
	return json.Marshal(req)
}

// warm sends one prediction to a tenant, loading it, and learns its model
// generation for the exact-answer check.
func (fl *fleet) warm(id string, s *sample) error {
	var buf bytes.Buffer
	code, err := fl.post("/v1/predict", id, s.body, &buf)
	if err != nil {
		return fmt.Errorf("warming %s: %w", id, err)
	}
	if code != http.StatusOK {
		return fmt.Errorf("warming %s: status %d: %s", id, code, buf.Bytes())
	}
	var resp struct {
		ModelGeneration uint64 `json:"model_generation"`
	}
	if err := json.Unmarshal(buf.Bytes(), &resp); err != nil {
		return fmt.Errorf("warming %s: %w", id, err)
	}
	fl.prefix[id] = []byte(`{"tenant":` + strconv.Quote(id) + `,"model_generation":` +
		strconv.FormatUint(resp.ModelGeneration, 10) + `,"blocks":` + strconv.Itoa(fl.fit.blocks) + `,"voltages":[`)
	if !fl.checkPredict(id, s, buf.Bytes()) {
		return fmt.Errorf("warming %s: answer differs from the local predictor", id)
	}
	return nil
}

// post sends one unary request and reads the whole answer into buf.
func (fl *fleet) post(path, tenant string, body []byte, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(http.MethodPost, fl.target.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(serve.TenantHeader, tenant)
	resp, err := fl.target.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := io.Copy(buf, resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// checkPredict validates a 200 /v1/predict answer: bit-for-bit equal to the
// local predictor on read-only tenants, inRange on the others.
func (fl *fleet) checkPredict(tenant string, s *sample, got []byte) bool {
	if fl.readOnly[tenant] {
		pre := fl.prefix[tenant]
		const suf = "]}\n"
		return len(got) == len(pre)+len(s.want)+len(suf) && bytes.HasPrefix(got, pre) &&
			bytes.Equal(got[len(pre):len(got)-len(suf)], s.want) && bytes.HasSuffix(got, []byte(suf))
	}
	var resp struct {
		Voltages [][]float64 `json:"voltages"`
	}
	if json.Unmarshal(got, &resp) != nil || len(resp.Voltages) != 1 {
		return false
	}
	return fl.inRange(resp.Voltages[0])
}

// inRange reports whether v is a full block-voltage vector of finite values
// in (0, (1+overshootFrac)·VDD].
func (fl *fleet) inRange(v []float64) bool {
	if len(v) != fl.fit.blocks {
		return false
	}
	for _, x := range v {
		if !finite(x) || x <= 0 || x > fl.fit.vdd*(1+overshootFrac) {
			return false
		}
	}
	return true
}

// setupFleet times sc.serveReps complete set-ups — fit, store, server, warm
// — and returns the median time with the last fleet still running. Between
// set-ups, untimed, it stops the previous fleet and collects garbage. With a
// tracer it sets up once, traced.
func setupFleet(rc runConfig, writes bool, tr *tracer) (*fleet, float64, error) {
	cfg := rc.sc.serve
	cfg.Seed = rc.seed
	reps := rc.sc.serveReps
	if tr != nil {
		reps = 1
	}
	var fl *fleet
	var times []float64
	for i := 0; i < reps; i++ {
		if fl != nil {
			fl.close()
			runtime.GC()
		}
		t0 := time.Now()
		fit, err := fitServing(tr, cfg, rc.sc)
		if err != nil {
			return nil, 0, err
		}
		dir, err := storeDir(rc, fmt.Sprintf("store%d", i))
		if err != nil {
			return nil, 0, err
		}
		if fl, err = startFleet(fit, dir, rc.sc, writes, rc.seed); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return fl, median(times), nil
}
