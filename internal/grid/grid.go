// Package grid builds the power-delivery-network model of a chip: a regular
// 2-D resistive mesh with on-die decoupling capacitance at every node and
// C4-bump-like pads connecting the mesh to the ideal VDD rail through a
// package R/L.
//
// The grid is the electrical substrate whose transient behaviour (package
// pdn) produces the voltage maps that both the group-lasso placement and the
// Eagle-Eye baseline consume. Node indexing is row-major (id = iy*NX + ix),
// which makes the conductance matrix banded with half-bandwidth NX; package
// pdn renumbers the nodes along the shorter axis for its banded Cholesky,
// which narrows the band to min(NX, NY).
package grid

import (
	"fmt"
	"math"
	"math/rand"

	"voltsense/internal/floorplan"
)

// Config holds the electrical and geometric parameters of the mesh.
// Distributed quantities are specified per unit length/area so that meshes
// of different resolutions model the same physical chip: Build derives the
// per-segment resistance and per-node capacitance from the mesh pitch.
type Config struct {
	NX, NY     int     // mesh nodes in x and y
	SegRPerMM  float64 // effective grid resistance per mm of die, ohms/mm
	PadPitchMM float64 // spacing of the C4 pad array in mm (both directions)
	PadR       float64 // series resistance of one pad + package path, ohms
	PadL       float64 // series inductance of one pad + package path, henries
	CapPerMM2  float64 // on-die decap per mm² of die, farads/mm²
	VDD        float64 // ideal supply, volts

	// Process variation (zero = nominal die): each segment's resistance is
	// multiplied by exp(N(0, SegRSigma)) and each pad's by
	// exp(N(0, PadRSigma)), drawn deterministically from VariationSeed.
	// Used by the deployment-robustness study: a model trained on the
	// nominal die monitors a die that came back different.
	SegRSigma     float64
	PadRSigma     float64
	VariationSeed int64
}

// DefaultConfig returns the mesh used by the experiments: ~0.3 mm pitch over
// the default chip, a 22 nm-plausible coarse-grained grid resistivity, and a
// pad array with enough loop inductance to produce mid-frequency resonant
// droops. The values are tuned so a Xeon-class workload produces typical
// droops near 5-10% of VDD with occasional excursions past the 0.85 V
// emergency threshold — the regime the paper's detection experiments need.
func DefaultConfig() Config {
	return Config{
		NX:         78,
		NY:         34,
		SegRPerMM:  0.16,    // Ω per mm of die span
		PadPitchMM: 2.25,    // C4 bump-array pitch
		PadR:       0.030,   // 30 mΩ per pad path
		PadL:       2.5e-10, // 0.25 nH per pad path
		CapPerMM2:  1.5e-10, // 150 pF/mm² (~36 nF chip total)
		VDD:        1.0,
	}
}

// Edge is one mesh resistor between nodes A and B with conductance G.
type Edge struct {
	A, B int
	G    float64
}

// Pad is one connection from mesh node Node through series R and L to VDD.
type Pad struct {
	Node int
	R, L float64
}

// Grid is the assembled PDN model plus its mapping onto the floorplan.
type Grid struct {
	Cfg  Config
	Chip *floorplan.Chip

	Edges []Edge
	Pads  []Pad
	Caps  []float64 // per-node decap

	// BlockNodes[b] lists the mesh nodes inside block b's rectangle; block
	// current divides equally among them.
	BlockNodes [][]int

	// Candidates lists the sensor-candidate nodes: every mesh node in the
	// blank area (the paper assumes all BA nodes are candidates).
	Candidates []int

	// CandidateCore[i] is the core whose bounding box contains candidate i,
	// or -1 for nodes in the chip margin / inter-core channels.
	CandidateCore []int

	xs, ys []float64 // node coordinate lookup per axis index
}

// Build constructs the mesh over chip with the given config.
func Build(chip *floorplan.Chip, cfg Config) *Grid {
	if cfg.NX < 2 || cfg.NY < 2 {
		panic(fmt.Sprintf("grid: mesh %dx%d too small", cfg.NX, cfg.NY))
	}
	if cfg.SegRPerMM <= 0 || cfg.PadR <= 0 || cfg.CapPerMM2 <= 0 || cfg.VDD <= 0 {
		panic(fmt.Sprintf("grid: non-positive electrical parameter in %+v", cfg))
	}
	if cfg.PadPitchMM <= 0 {
		panic("grid: PadPitchMM must be positive")
	}
	g := &Grid{Cfg: cfg, Chip: chip}

	// Node coordinates: cell centers of an NX-by-NY tiling of the die.
	px := chip.Width / float64(cfg.NX)
	py := chip.Height / float64(cfg.NY)
	g.xs = make([]float64, cfg.NX)
	for i := range g.xs {
		g.xs[i] = (float64(i) + 0.5) * px
	}
	g.ys = make([]float64, cfg.NY)
	for i := range g.ys {
		g.ys[i] = (float64(i) + 0.5) * py
	}

	n := cfg.NX * cfg.NY
	segGX := 1 / (cfg.SegRPerMM * px) // horizontal segment conductance
	segGY := 1 / (cfg.SegRPerMM * py) // vertical segment conductance
	vary := newVariation(cfg)
	for iy := 0; iy < cfg.NY; iy++ {
		for ix := 0; ix < cfg.NX; ix++ {
			id := g.NodeID(ix, iy)
			if ix+1 < cfg.NX {
				g.Edges = append(g.Edges, Edge{A: id, B: g.NodeID(ix+1, iy), G: segGX * vary.seg()})
			}
			if iy+1 < cfg.NY {
				g.Edges = append(g.Edges, Edge{A: id, B: g.NodeID(ix, iy+1), G: segGY * vary.seg()})
			}
		}
	}

	// Pad array on a regular sub-lattice whose spacing approximates the
	// physical bump pitch at this mesh resolution, offset to avoid the die
	// edge. Deriving the node stride from millimetres keeps the pad count
	// per mm² — and therefore the droop depth — independent of mesh
	// resolution.
	padEveryX := nearestStride(cfg.PadPitchMM, px)
	padEveryY := nearestStride(cfg.PadPitchMM, py)
	for iy := padEveryY / 2; iy < cfg.NY; iy += padEveryY {
		for ix := padEveryX / 2; ix < cfg.NX; ix += padEveryX {
			g.Pads = append(g.Pads, Pad{Node: g.NodeID(ix, iy), R: cfg.PadR * vary.pad(), L: cfg.PadL})
		}
	}

	g.Caps = make([]float64, n)
	nodeCap := cfg.CapPerMM2 * px * py
	for i := range g.Caps {
		g.Caps[i] = nodeCap
	}

	// Map blocks to their covered nodes, and classify BA nodes as sensor
	// candidates.
	g.BlockNodes = make([][]int, chip.NumBlocks())
	for iy := 0; iy < cfg.NY; iy++ {
		for ix := 0; ix < cfg.NX; ix++ {
			id := g.NodeID(ix, iy)
			x, y := g.xs[ix], g.ys[iy]
			if b := chip.BlockAt(x, y); b != nil {
				g.BlockNodes[b.ID] = append(g.BlockNodes[b.ID], id)
				continue
			}
			g.Candidates = append(g.Candidates, id)
			core := chip.CoreAt(x, y)
			if core != nil {
				g.CandidateCore = append(g.CandidateCore, core.Index)
			} else {
				g.CandidateCore = append(g.CandidateCore, -1)
			}
		}
	}
	// A block too small for the mesh pitch gets its nearest node so its
	// current is never dropped.
	for b, nodes := range g.BlockNodes {
		if len(nodes) == 0 {
			cx, cy := chip.Blocks[b].Bounds.Center()
			g.BlockNodes[b] = []int{g.NearestNode(cx, cy)}
		}
	}
	return g
}

// NumNodes returns the mesh node count.
func (g *Grid) NumNodes() int { return g.Cfg.NX * g.Cfg.NY }

// NodeID maps mesh coordinates to the node index.
func (g *Grid) NodeID(ix, iy int) int {
	if ix < 0 || ix >= g.Cfg.NX || iy < 0 || iy >= g.Cfg.NY {
		panic(fmt.Sprintf("grid: node (%d,%d) out of %dx%d", ix, iy, g.Cfg.NX, g.Cfg.NY))
	}
	return iy*g.Cfg.NX + ix
}

// NodePos returns the die coordinates (mm) of node id.
func (g *Grid) NodePos(id int) (x, y float64) {
	if id < 0 || id >= g.NumNodes() {
		panic(fmt.Sprintf("grid: node %d out of range %d", id, g.NumNodes()))
	}
	return g.xs[id%g.Cfg.NX], g.ys[id/g.Cfg.NX]
}

// NearestNode returns the mesh node closest to die position (x, y).
func (g *Grid) NearestNode(x, y float64) int {
	px := g.Chip.Width / float64(g.Cfg.NX)
	py := g.Chip.Height / float64(g.Cfg.NY)
	ix := clamp(int(math.Floor(x/px)), 0, g.Cfg.NX-1)
	iy := clamp(int(math.Floor(y/py)), 0, g.Cfg.NY-1)
	return g.NodeID(ix, iy)
}

// CandidatesInCore returns the indices (into g.Candidates) of the sensor
// candidates whose node lies inside core c's bounding box — the per-core
// candidate pool the paper's Figure 1 sweeps over.
func (g *Grid) CandidatesInCore(c int) []int {
	var out []int
	for i, core := range g.CandidateCore {
		if core == c {
			out = append(out, i)
		}
	}
	return out
}

// variation draws the lognormal process-variation multipliers. The zero
// config yields the nominal die (all multipliers exactly 1, no RNG draws,
// so nominal grids are bit-identical to pre-variation builds).
type variation struct {
	rng            *rand.Rand
	segSig, padSig float64
}

func newVariation(cfg Config) *variation {
	v := &variation{segSig: cfg.SegRSigma, padSig: cfg.PadRSigma}
	if v.segSig < 0 || v.padSig < 0 {
		panic(fmt.Sprintf("grid: negative variation sigma in %+v", cfg))
	}
	if v.segSig > 0 || v.padSig > 0 {
		v.rng = rand.New(rand.NewSource(cfg.VariationSeed))
	}
	return v
}

func (v *variation) seg() float64 {
	if v.segSig == 0 {
		return 1
	}
	return math.Exp(v.rng.NormFloat64() * v.segSig)
}

func (v *variation) pad() float64 {
	if v.padSig == 0 {
		return 1
	}
	return math.Exp(v.rng.NormFloat64() * v.padSig)
}

// nearestStride converts a physical pitch to a node stride, at least 1.
func nearestStride(pitchMM, nodePitchMM float64) int {
	s := int(math.Round(pitchMM / nodePitchMM))
	if s < 1 {
		s = 1
	}
	return s
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
