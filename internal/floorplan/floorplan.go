// Package floorplan models the chip geometry the methodology runs on: an
// 8-core Xeon-E5-like multiprocessor with 30 microarchitectural function
// blocks per core.
//
// The chip is partitioned, exactly as in the paper, into a function area (FA:
// the union of the block rectangles, where supply noise matters but no sensor
// may be placed) and a blank area (BA: routing channels between blocks, the
// core periphery and the chip periphery, where sensor candidates live).
package floorplan

import (
	"fmt"
	"math"
)

// Rect is an axis-aligned rectangle in millimetres: [X0,X1) x [Y0,Y1).
type Rect struct {
	X0, Y0, X1, Y1 float64
}

// Contains reports whether point (x, y) lies inside the rectangle.
func (r Rect) Contains(x, y float64) bool {
	return x >= r.X0 && x < r.X1 && y >= r.Y0 && y < r.Y1
}

// Center returns the rectangle midpoint.
func (r Rect) Center() (float64, float64) {
	return (r.X0 + r.X1) / 2, (r.Y0 + r.Y1) / 2
}

// Width returns X1-X0.
func (r Rect) Width() float64 { return r.X1 - r.X0 }

// Height returns Y1-Y0.
func (r Rect) Height() float64 { return r.Y1 - r.Y0 }

// Area returns the rectangle area in mm².
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Unit classifies the function blocks of a core into the functional groups
// the paper colors in its Figure 3.
type Unit int

// Functional units of a core.
const (
	Frontend  Unit = iota // fetch/decode/rename pipeline front
	Execution             // issue queues, register files, ALUs/FPUs (the paper's "blue unit")
	Memory                // load/store machinery and L1D
	Cache                 // L2 slice and prefetch/uncore-adjacent logic
	numUnits
)

// String returns the unit name.
func (u Unit) String() string {
	switch u {
	case Frontend:
		return "frontend"
	case Execution:
		return "execution"
	case Memory:
		return "memory"
	case Cache:
		return "cache"
	default:
		return fmt.Sprintf("Unit(%d)", int(u))
	}
}

// Block is one function block instance in one core.
type Block struct {
	ID     int    // global index across the chip, dense from 0
	Core   int    // owning core index
	Local  int    // index within the core, 0..BlocksPerCore-1
	Name   string // microarchitectural name, e.g. "alu0"
	Unit   Unit
	Bounds Rect
}

// BlocksPerCore is the number of function blocks in each core, matching the
// paper's experimental setup.
const BlocksPerCore = 30

// blockDef describes one of the 30 per-core blocks: its name, unit, and the
// (row, column, width-in-columns) cell it occupies in the core's 5x6 layout
// lattice. Rows run bottom (0) to top (4); the execution unit occupies the
// middle of the core, as in the die shots the paper's Figure 3 mimics.
type blockDef struct {
	name string
	unit Unit
}

// blockDefs lays the 30 blocks on a 5-row x 6-column lattice, row-major from
// bottom-left. Row 0: L2 slice across the bottom. Rows 1: memory subsystem.
// Rows 2-3: execution core. Row 4: frontend.
var blockDefs = [BlocksPerCore]blockDef{
	// Row 0 (bottom): cache slice.
	{"l2_0", Cache}, {"l2_1", Cache}, {"l2_2", Cache}, {"l2_3", Cache}, {"prefetch", Cache}, {"mshr", Cache},
	// Row 1: memory subsystem.
	{"l1d_0", Memory}, {"l1d_1", Memory}, {"dtlb", Memory}, {"lsu", Memory}, {"loadq", Memory}, {"storeq", Memory},
	// Row 2: integer execution.
	{"int_issueq", Execution}, {"int_regfile", Execution}, {"alu0", Execution}, {"alu1", Execution}, {"alu2", Execution}, {"muldiv", Execution},
	// Row 3: floating point + retire.
	{"fp_issueq", Execution}, {"fp_regfile", Execution}, {"fpu0", Execution}, {"fpu1", Execution}, {"agu0", Execution}, {"rob", Execution},
	// Row 4 (top): frontend.
	{"fetch", Frontend}, {"branchpred", Frontend}, {"itlb", Frontend}, {"l1i", Frontend}, {"decode", Frontend}, {"rename", Frontend},
}

// layoutRows and layoutCols define the per-core block lattice.
const (
	layoutRows = 5
	layoutCols = 6
)

// Config parameterizes chip construction. The zero value is not useful; use
// DefaultConfig as a starting point.
type Config struct {
	CoresX, CoresY float64 // core grid, e.g. 4 x 2
	CoreWidth      float64 // mm
	CoreHeight     float64 // mm
	CoreGap        float64 // mm of blank area between adjacent cores
	ChipMargin     float64 // mm of blank area around the core array
	BlockGapFrac   float64 // fraction of each lattice cell left blank around the block
}

// DefaultConfig returns the 8-core (4x2) chip used in the experiments:
// 5 mm x 4 mm cores with 0.6 mm channels, mimicking the paper's Xeon-E5-like
// testbed.
func DefaultConfig() Config {
	return Config{
		CoresX:       4,
		CoresY:       2,
		CoreWidth:    5.0,
		CoreHeight:   4.0,
		CoreGap:      0.6,
		ChipMargin:   0.8,
		BlockGapFrac: 0.12,
	}
}

// Core is one processor core: its bounding box and its 30 blocks.
type Core struct {
	Index  int
	Bounds Rect
	Blocks []*Block // BlocksPerCore entries, indexed by Local
}

// Chip is the full floorplan.
type Chip struct {
	Width, Height float64 // mm
	Cores         []*Core
	Blocks        []*Block // all blocks across all cores, indexed by ID
}

// New builds a chip floorplan from cfg. It validates the geometry and panics
// on non-positive dimensions (configuration is programmer-controlled).
func New(cfg Config) *Chip {
	nx, ny := int(cfg.CoresX), int(cfg.CoresY)
	if nx <= 0 || ny <= 0 || cfg.CoreWidth <= 0 || cfg.CoreHeight <= 0 {
		panic(fmt.Sprintf("floorplan: invalid config %+v", cfg))
	}
	if cfg.BlockGapFrac < 0 || cfg.BlockGapFrac >= 0.5 {
		panic(fmt.Sprintf("floorplan: BlockGapFrac %v out of [0, 0.5)", cfg.BlockGapFrac))
	}
	chip := &Chip{
		Width:  2*cfg.ChipMargin + float64(nx)*cfg.CoreWidth + float64(nx-1)*cfg.CoreGap,
		Height: 2*cfg.ChipMargin + float64(ny)*cfg.CoreHeight + float64(ny-1)*cfg.CoreGap,
	}
	id := 0
	for cy := 0; cy < ny; cy++ {
		for cx := 0; cx < nx; cx++ {
			coreIdx := cy*nx + cx
			x0 := cfg.ChipMargin + float64(cx)*(cfg.CoreWidth+cfg.CoreGap)
			y0 := cfg.ChipMargin + float64(cy)*(cfg.CoreHeight+cfg.CoreGap)
			core := &Core{
				Index:  coreIdx,
				Bounds: Rect{X0: x0, Y0: y0, X1: x0 + cfg.CoreWidth, Y1: y0 + cfg.CoreHeight},
			}
			cellW := cfg.CoreWidth / layoutCols
			cellH := cfg.CoreHeight / layoutRows
			gx := cellW * cfg.BlockGapFrac
			gy := cellH * cfg.BlockGapFrac
			for local := 0; local < BlocksPerCore; local++ {
				row := local / layoutCols
				col := local % layoutCols
				def := blockDefs[local]
				b := &Block{
					ID:    id,
					Core:  coreIdx,
					Local: local,
					Name:  def.name,
					Unit:  def.unit,
					Bounds: Rect{
						X0: x0 + float64(col)*cellW + gx,
						Y0: y0 + float64(row)*cellH + gy,
						X1: x0 + float64(col+1)*cellW - gx,
						Y1: y0 + float64(row+1)*cellH - gy,
					},
				}
				core.Blocks = append(core.Blocks, b)
				chip.Blocks = append(chip.Blocks, b)
				id++
			}
			chip.Cores = append(chip.Cores, core)
		}
	}
	return chip
}

// BlockAt returns the function block containing (x, y), or nil when the
// point lies in the blank area.
func (c *Chip) BlockAt(x, y float64) *Block {
	for _, core := range c.Cores {
		if !core.Bounds.Contains(x, y) {
			continue
		}
		for _, b := range core.Blocks {
			if b.Bounds.Contains(x, y) {
				return b
			}
		}
		return nil // inside the core but in a routing channel
	}
	return nil
}

// InFA reports whether (x, y) lies inside the function area.
func (c *Chip) InFA(x, y float64) bool { return c.BlockAt(x, y) != nil }

// CoreAt returns the core containing (x, y), or nil.
func (c *Chip) CoreAt(x, y float64) *Core {
	for _, core := range c.Cores {
		if core.Bounds.Contains(x, y) {
			return core
		}
	}
	return nil
}

// NumBlocks returns the total function-block count (cores x BlocksPerCore).
func (c *Chip) NumBlocks() int { return len(c.Blocks) }

// NearestBlock returns the block whose center is nearest to (x, y) and the
// distance to it, used when associating sensor candidates with units for
// reporting.
func (c *Chip) NearestBlock(x, y float64) (*Block, float64) {
	var best *Block
	bestD := math.Inf(1)
	for _, b := range c.Blocks {
		bx, by := b.Bounds.Center()
		d := math.Hypot(bx-x, by-y)
		if d < bestD {
			best, bestD = b, d
		}
	}
	return best, bestD
}
