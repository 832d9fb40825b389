// Package voltsense reproduces "A Statistical Methodology for Noise Sensor
// Placement and Full-Chip Voltage Map Generation" (Liu, Sun, Zhou, Li, Qian
// — DAC 2015) as a self-contained Go library.
//
// The methodology places a small set of voltage-noise sensors in the blank
// area of a chip by solving a group-lasso feature-selection problem over
// simulated voltage maps, then refits an unbiased ordinary-least-squares
// model that predicts — at runtime, from only those sensors — the supply
// voltage of every function block (and, extended, the full-chip voltage
// map), enabling voltage-emergency detection with far fewer misses than
// threshold-only placements such as Eagle-Eye (ICCAD 2013).
//
// Two levels of API are exposed:
//
//   - The turn-key pipeline (NewPipeline with QuickConfig):
//     builds the 8-core chip model, synthesizes the 19 PARSEC-like
//     workloads, runs power-grid transient simulation, and regenerates every
//     table and figure of the paper (Table1, Table2, Figure1..Figure4
//     methods on Pipeline).
//
//   - The methodology on your own data (PlaceSensors, BuildPredictor,
//     SweepLambda): bring an M-by-N matrix of candidate-sensor voltage
//     samples and a K-by-N matrix of monitored-node voltage samples, get
//     back a sensor set and a runtime predictor.
//
// All numerics — dense/banded/sparse linear algebra, the FISTA and
// block-coordinate-descent group-lasso solvers, the backward-Euler power
// grid engine — are implemented in this module with no dependencies beyond
// the standard library.
package voltsense

import (
	"io"

	"voltsense/internal/core"
	"voltsense/internal/detect"
	"voltsense/internal/eagleeye"
	"voltsense/internal/experiments"
	"voltsense/internal/faults"
	"voltsense/internal/grid"
	"voltsense/internal/mat"
	"voltsense/internal/monitor"
	"voltsense/internal/online"
	"voltsense/internal/place"
	"voltsense/internal/transfer"
	"voltsense/internal/vmap"
)

// Matrix is the dense row-major matrix type used throughout the API.
// Data matrices follow the paper's layout: rows are variables (sensor
// candidates or monitored nodes), columns are samples.
type Matrix = mat.Matrix

// ZeroMatrix allocates an r-by-c zero matrix.
func ZeroMatrix(r, c int) *Matrix { return mat.Zeros(r, c) }

// MatrixFromRows copies a slice of equal-length rows into a matrix.
func MatrixFromRows(rows [][]float64) *Matrix { return mat.FromRows(rows) }

// --- The methodology on caller-supplied data (paper Sections 2.2-2.4) ---

// Dataset pairs candidate-sensor samples (X, M-by-N) with monitored-node
// samples (F, K-by-N).
type Dataset = core.Dataset

// PlacementConfig parameterizes sensor selection: the group-lasso budget λ,
// the selection threshold T (DefaultThreshold when zero) and solver options.
type PlacementConfig = core.Config

// Placement is a solved sensor selection: chosen candidate indices plus the
// per-candidate group norms behind the choice.
type Placement = core.Placement

// Predictor is the runtime model of the paper's Eq. 20.
type Predictor = core.Predictor

// SweepPoint is one λ of a placement/accuracy tradeoff sweep.
type SweepPoint = core.SweepPoint

// PlaceSensors selects sensors from ds.X's candidates via group lasso
// (paper Eq. 12, Steps 0-5).
func PlaceSensors(ds *Dataset, cfg PlacementConfig) (*Placement, error) {
	return core.PlaceSensors(ds, cfg)
}

// BuildPredictor refits the unbiased OLS runtime model on the selected
// sensors (paper Eq. 17, Steps 6-8).
func BuildPredictor(ds *Dataset, selected []int) (*Predictor, error) {
	return core.BuildPredictor(ds, selected)
}

// SweepLambda runs the Section 2.4 workflow over a λ grid, scoring each
// point's prediction error on held-out data.
func SweepLambda(train, test *Dataset, lambdas []float64, cfg PlacementConfig) ([]SweepPoint, error) {
	return core.SweepLambda(train, test, lambdas, cfg)
}

// --- Emergency detection and the Eagle-Eye baseline (Section 3.2) ---

// DetectionRates aggregates the paper's miss-error, wrong-alarm-error and
// total-error rates.
type DetectionRates = detect.Rates

// DefaultVth is the paper's 0.85 V emergency threshold at VDD = 1.0 V.
const DefaultVth = detect.DefaultVth

// EmergencyTruth flags each sample (column) whose monitored voltages cross
// below vth.
func EmergencyTruth(voltages *Matrix, vth float64) []bool {
	return detect.TruthFromVoltages(voltages, vth)
}

// PredictionAlarms flags each sample whose predicted voltages cross below
// vth — the proposed scheme's alarm rule.
func PredictionAlarms(pred *Matrix, vth float64) []bool {
	return detect.AlarmsFromPredictions(pred, vth)
}

// ScoreDetection compares alarms against truth.
func ScoreDetection(truth, alarms []bool) DetectionRates { return detect.Score(truth, alarms) }

// EagleEyePlacement is a fitted baseline sensor set.
type EagleEyePlacement = eagleeye.Placement

// PlaceEagleEye runs the baseline's greedy emergency-coverage placement.
func PlaceEagleEye(x, f *Matrix, vth float64, q int) *EagleEyePlacement {
	return eagleeye.Place(x, f, vth, q)
}

// --- Pluggable placement criteria and heterogeneous sensor classes ---

// CriterionConfig parameterizes criterion-driven placement: candidate POD
// basis sizing, emergency threshold, and group-lasso solver options.
type CriterionConfig = core.CriterionConfig

// CriterionPlacement is a solved criterion-driven selection, carrying the
// shared placement problem for GLS refits or further criteria.
type CriterionPlacement = core.CriterionPlacement

// SensorClassSpec prices the two heterogeneous device classes (reference vs
// low-cost): per-class noise variance and deployment cost.
type SensorClassSpec = place.ClassSpec

// MixedSensorPlacement is a budget-constrained heterogeneous selection:
// sites, per-site device classes, and total cost.
type MixedSensorPlacement = place.MixedPlacement

// DefaultSensorClassSpec is the default mixed-network pricing: a reference
// sensor is 16× quieter and 4× the cost of a low-cost sensor.
var DefaultSensorClassSpec = place.DefaultClassSpec

// PlaceWithCriterion selects q sensors with the named criterion — the
// pluggable counterpart of PlaceSensors.
func PlaceWithCriterion(ds *Dataset, name string, q int, cc CriterionConfig) (*CriterionPlacement, error) {
	crit, err := place.ParseCriterion(name)
	if err != nil {
		return nil, err
	}
	return core.PlaceWith(ds, crit, q, cc)
}

// PlaceMixedSensors spends a cost budget across reference and low-cost
// sensor classes; refit the result with BuildGLSPredictor and the
// placement's NoiseVariances.
func PlaceMixedSensors(ds *Dataset, spec SensorClassSpec, budget float64, cc CriterionConfig) (*MixedSensorPlacement, *place.Problem, error) {
	return core.PlaceMixedSensors(ds, spec, budget, cc)
}

// BuildGLSPredictor refits a selection with per-sensor noise weighting (GLS)
// into a standard runtime Predictor.
func BuildGLSPredictor(p *place.Problem, selected []int, noiseVar []float64) (*Predictor, error) {
	return core.BuildGLSPredictor(p, selected, noiseVar)
}

// --- Full-chip voltage map generation (the title's second half) ---

// MapGenerator reconstructs full-chip voltage maps from the placed sensors.
type MapGenerator = vmap.Generator

// TrainMapGenerator fits a map generator from selected-sensor samples
// (Q-by-N) to full-map samples (nodes-by-N).
func TrainMapGenerator(sensorX, nodeV *Matrix) (*MapGenerator, error) {
	return vmap.Train(sensorX, nodeV)
}

// RenderMap draws a voltage map as an ASCII heat field on the [lo, hi] volt
// scale.
func RenderMap(g *Grid, v []float64, lo, hi float64) string { return vmap.Render(g, v, lo, hi) }

// Grid is a power-delivery mesh over a chip.
type Grid = grid.Grid

// --- Predictor persistence ---

// SavePredictor writes a fitted runtime model as versioned JSON for
// deployment; LoadPredictor reads it back.
func SavePredictor(w io.Writer, p *Predictor) error { return p.Save(w) }

// LoadPredictor reads a model written by SavePredictor.
func LoadPredictor(r io.Reader) (*Predictor, error) { return core.LoadPredictor(r) }

// --- Runtime monitoring (dynamic noise management) ---

// Monitor tracks per-block emergencies from streaming sensor readings with
// hysteresis and throttle hooks — the runtime loop around Eq. 20.
type Monitor = monitor.Monitor

// MonitorConfig tunes the alarm state machine.
type MonitorConfig = monitor.Config

// ThrottleFunc adapts a function to the monitor's throttle hook.
type ThrottleFunc = monitor.ThrottleFunc

// NewMonitor builds a runtime monitor over any predictor with k block
// outputs.
func NewMonitor(pred monitor.Predictor, k int, cfg MonitorConfig, th monitor.Throttler) (*Monitor, error) {
	return monitor.New(pred, k, cfg, th)
}

// --- Fault tolerance: surviving failed sensors at runtime ---

// BuildPredictorWithFallbacks fits the Eq. 17 model plus leave-k-out
// fallback submodels tolerating up to budget failed sensors; the fallbacks
// serialize into the artifact's optional "fallbacks" section.
func BuildPredictorWithFallbacks(ds *Dataset, selected []int, budget int) (*Predictor, error) {
	return core.BuildPredictorWithFallbacks(ds, selected, budget)
}

// Fault is one synthetic sensor fault (stuck-at, dropout, or drift) for
// injection harnesses.
type Fault = faults.Fault

// FaultStuck is the stuck-at fault kind, for injection specs and detector
// diagnoses.
const FaultStuck = faults.Stuck

// FaultDetector classifies sensors as healthy or faulty from streaming
// readings judged against their training distribution.
type FaultDetector = faults.Detector

// FaultDetectorConfig tunes detection windows and thresholds.
type FaultDetectorConfig = faults.DetectorConfig

// FaultGuard routes predictions through the active model — primary or
// fallback — switching atomically as the detector diagnoses sensors.
type FaultGuard = faults.Guard

// FaultRoute is one way to turn a reading vector into block voltages: the
// primary model, or a fallback that ignores its Excluded positions.
type FaultRoute = faults.Route

// FaultInjector corrupts reading vectors per a fault spec.
type FaultInjector = faults.Injector

// NewFaultInjector validates a fault list against q sensors.
func NewFaultInjector(fl []Fault, q int) (*FaultInjector, error) { return faults.NewInjector(fl, q) }

// NewFaultDetector builds a detector over the sensors' training statistics.
func NewFaultDetector(stats []faults.SensorStats, cfg FaultDetectorConfig) (*FaultDetector, error) {
	return faults.NewDetector(stats, cfg)
}

// NewFaultGuard wires a detector, the primary route, and a fallback lookup
// into the runtime switch used by the serving layer.
func NewFaultGuard(det *FaultDetector, primary FaultRoute, lookup func([]int) (FaultRoute, bool)) (*FaultGuard, error) {
	return faults.NewGuard(det, primary, lookup)
}

// --- Online recalibration: tracking a drifting chip at runtime ---

// Lineage is the versioned provenance of a predictor: generation chain,
// fit source (offline training or an online promotion), and the residual
// baseline the drift detector judges against. Serialized as the artifact's
// optional "lineage" section.
type Lineage = core.Lineage

// LineageSourceTrain marks a predictor fit offline on a training campaign.
const LineageSourceTrain = core.LineageSourceTrain

// OnlineConfig tunes the adaptation loop: the shadow refit's forgetting
// factor, the promotion guardrails (minimum scored samples, TE margin),
// and the drift baseline.
type OnlineConfig = online.Config

// OnlineApplyFunc, when non-nil, gates every promotion and rollback: it
// receives the candidate model and may veto the swap by returning an error
// (voltserved uses this to refuse stale or fault-compromised promotions).
type OnlineApplyFunc = online.ApplyFunc

// OnlineAdapter closes the recalibration loop around a live predictor:
// labeled samples feed a Sherman–Morrison shadow refit, both models are
// scored on the paper's total-error rate, and the shadow is promoted when
// it provably beats the live model.
type OnlineAdapter = online.Adapter

// NewOnlineAdapter builds the adaptation loop around the live predictor.
func NewOnlineAdapter(live *Predictor, cfg OnlineConfig, apply OnlineApplyFunc) (*OnlineAdapter, error) {
	return online.NewAdapter(live, cfg, apply)
}

// --- Fleet transfer calibration: golden-chip prior + few-shot alignment ---

// SharedPrior is the fleet's distilled golden-chip knowledge: a Gaussian
// prior over the Eq. 20 coefficients, fit once from one or more fully
// characterized chips and shared by every fielded chip.
type SharedPrior = transfer.SharedPrior

// SharedPriorConfig tunes how golden predictors pool into a prior.
type SharedPriorConfig = transfer.PriorConfig

// AlignConfig tunes few-shot alignment: prior shrinkage, the minimum-sample
// evidence gate, and the delta sparsification tolerance.
type AlignConfig = transfer.AlignConfig

// ChipAlignment is one fielded chip's MAP refit against the shared prior:
// the aligned predictor, its sparse delta over the prior mean, and the
// normal-equation state for warm-starting online adaptation.
type ChipAlignment = transfer.Alignment

// FitSharedPrior pools golden-chip predictors (same sensor selection) into
// the fleet's shared prior.
func FitSharedPrior(goldens []*Predictor, cfg SharedPriorConfig) (*SharedPrior, error) {
	return transfer.FitPrior(goldens, cfg)
}

// AlignChip refits one fielded chip against the shared prior from a few
// labeled samples (readings x, Q-by-N; voltages f, K-by-N) — the library
// counterpart of voltserved's POST /v1/calibrate.
func AlignChip(prior *SharedPrior, x, f *Matrix, cfg AlignConfig) (*ChipAlignment, error) {
	return transfer.AlignChip(prior, x, f, cfg)
}

// SaveSharedPrior writes a prior as versioned JSON (voltsense-prior/v1,
// the format voltserved's -prior flag loads).
func SaveSharedPrior(w io.Writer, p *SharedPrior) error { return p.Save(w) }

// --- The turn-key experimental pipeline ---

// Pipeline is the end-to-end substrate that regenerates the paper's
// evaluation; see its Table1, Table2, Figure1-Figure4 methods.
type Pipeline = experiments.Pipeline

// PipelineConfig sizes the pipeline.
type PipelineConfig = experiments.Config

// QuickConfig is the reduced pipeline for exploration (seconds to build).
func QuickConfig() PipelineConfig { return experiments.QuickConfig() }

// NewPipeline builds a pipeline: chip, workloads, transient simulations,
// training and held-out voltage maps.
func NewPipeline(cfg PipelineConfig) (*Pipeline, error) { return experiments.New(cfg) }
