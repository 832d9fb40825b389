// Package vmap implements the title's "full-chip voltage map generation":
// extending the paper's block-level prediction model to every node of the
// power grid, so the Q placed sensors reconstruct a complete voltage map at
// runtime.
//
// Training fits one ridge-stabilized least-squares row per grid node against
// the selected sensors — the same Eq. 17 machinery as the block model, with
// K equal to the node count. Rendering helpers visualize maps as ASCII heat
// fields for the CLI and examples.
package vmap

import (
	"fmt"
	"math"
	"strings"

	"voltsense/internal/grid"
	"voltsense/internal/mat"
	"voltsense/internal/ols"
)

// Generator reconstructs full-chip voltage maps from selected-sensor
// readings.
type Generator struct {
	model *ols.Model
	nodes int
}

// Train fits the map generator. sensorX is Q-by-N selected-sensor voltages;
// nodeV is NumNodes-by-N full-map training voltages (same sample columns).
func Train(sensorX, nodeV *mat.Matrix) (*Generator, error) {
	m, err := ols.Fit(sensorX, nodeV)
	if err != nil {
		return nil, fmt.Errorf("vmap: %w", err)
	}
	return &Generator{model: m, nodes: nodeV.Rows()}, nil
}

// NumNodes returns the size of generated maps.
func (g *Generator) NumNodes() int { return g.nodes }

// Generate reconstructs the full voltage map (one value per grid node) from
// one sensor reading vector.
func (g *Generator) Generate(sensorV []float64) []float64 {
	return g.model.Predict(sensorV)
}

// MapError summarizes reconstruction quality of one map against truth.
type MapError struct {
	Rel    float64 // ‖pred − truth‖₂ / ‖truth‖₂
	MaxAbs float64 // worst node error, volts
	RMS    float64 // root mean square node error, volts
}

// Compare computes reconstruction errors for one map.
func Compare(pred, truth []float64) MapError {
	if len(pred) != len(truth) {
		panic(fmt.Sprintf("vmap: map sizes %d vs %d", len(pred), len(truth)))
	}
	var num, den, mx, sq float64
	for i := range pred {
		d := pred[i] - truth[i]
		num += d * d
		den += truth[i] * truth[i]
		sq += d * d
		if a := math.Abs(d); a > mx {
			mx = a
		}
	}
	e := MapError{MaxAbs: mx}
	if den > 0 {
		e.Rel = math.Sqrt(num / den)
	}
	if len(pred) > 0 {
		e.RMS = math.Sqrt(sq / float64(len(pred)))
	}
	return e
}

// heatRamp runs from deepest droop to full rail.
const heatRamp = "@%#*+=-:. "

// Render draws a voltage map as an ASCII heat field, one character per grid
// node, rows printed top-down. lo and hi set the color scale (volts); nodes
// at or below lo render '@', nodes at or above hi render ' '.
func Render(g *grid.Grid, v []float64, lo, hi float64) string {
	if len(v) != g.NumNodes() {
		panic(fmt.Sprintf("vmap: map size %d, grid has %d nodes", len(v), g.NumNodes()))
	}
	if hi <= lo {
		panic(fmt.Sprintf("vmap: bad scale [%v, %v]", lo, hi))
	}
	var b strings.Builder
	nx, ny := g.Cfg.NX, g.Cfg.NY
	for iy := ny - 1; iy >= 0; iy-- {
		for ix := 0; ix < nx; ix++ {
			x := v[g.NodeID(ix, iy)]
			t := (x - lo) / (hi - lo)
			if t < 0 {
				t = 0
			}
			if t > 1 {
				t = 1
			}
			idx := int(t * float64(len(heatRamp)-1))
			b.WriteByte(heatRamp[idx])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
