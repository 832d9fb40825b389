package floorplan

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDefaultChipShape(t *testing.T) {
	chip := New(DefaultConfig())
	if got := len(chip.Cores); got != 8 {
		t.Fatalf("cores = %d, want 8", got)
	}
	if got := chip.NumBlocks(); got != 8*BlocksPerCore {
		t.Fatalf("blocks = %d, want %d", got, 8*BlocksPerCore)
	}
	// 4 cores * 5mm + 3 gaps * 0.6mm + 2 margins * 0.8mm = 23.4mm wide.
	if math.Abs(chip.Width-23.4) > 1e-12 {
		t.Errorf("width = %v, want 23.4", chip.Width)
	}
	// 2 cores * 4mm + 1 gap * 0.6mm + 2 margins * 0.8mm = 10.2mm tall.
	if math.Abs(chip.Height-10.2) > 1e-12 {
		t.Errorf("height = %v, want 10.2", chip.Height)
	}
}

func TestBlockIDsDenseAndConsistent(t *testing.T) {
	chip := New(DefaultConfig())
	for i, b := range chip.Blocks {
		if b.ID != i {
			t.Fatalf("block %d has ID %d", i, b.ID)
		}
		if b.Core*BlocksPerCore+b.Local != b.ID {
			t.Fatalf("block %d: core %d local %d inconsistent", b.ID, b.Core, b.Local)
		}
		if chip.Cores[b.Core].Blocks[b.Local] != b {
			t.Fatalf("block %d not shared with its core", b.ID)
		}
	}
}

func TestBlocksDoNotOverlap(t *testing.T) {
	chip := New(DefaultConfig())
	for i, a := range chip.Blocks {
		for _, b := range chip.Blocks[i+1:] {
			if a.Bounds.X0 < b.Bounds.X1 && b.Bounds.X0 < a.Bounds.X1 &&
				a.Bounds.Y0 < b.Bounds.Y1 && b.Bounds.Y0 < a.Bounds.Y1 {
				t.Fatalf("blocks %s/%d and %s/%d overlap", a.Name, a.Core, b.Name, b.Core)
			}
		}
	}
}

func TestBlocksInsideTheirCore(t *testing.T) {
	chip := New(DefaultConfig())
	for _, core := range chip.Cores {
		for _, b := range core.Blocks {
			r, cb := b.Bounds, core.Bounds
			if r.X0 < cb.X0 || r.X1 > cb.X1 || r.Y0 < cb.Y0 || r.Y1 > cb.Y1 {
				t.Fatalf("block %s of core %d escapes core bounds", b.Name, core.Index)
			}
		}
	}
}

func TestBlockAtAgreesWithBounds(t *testing.T) {
	chip := New(DefaultConfig())
	for _, b := range chip.Blocks {
		cx, cy := b.Bounds.Center()
		got := chip.BlockAt(cx, cy)
		if got != b {
			t.Fatalf("BlockAt(center of %s/%d) = %v", b.Name, b.Core, got)
		}
	}
	// Chip corner is margin: blank area.
	if chip.BlockAt(0.01, 0.01) != nil {
		t.Error("chip margin should be blank area")
	}
	// Outside the chip entirely.
	if chip.BlockAt(-1, -1) != nil {
		t.Error("outside chip should be blank")
	}
}

// Property: BlockAt(x,y) returns b iff some block's Bounds contains (x,y),
// and InFA agrees.
func TestBlockAtMatchesLinearScan(t *testing.T) {
	chip := New(DefaultConfig())
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := rng.Float64() * chip.Width
		y := rng.Float64() * chip.Height
		var want *Block
		for _, b := range chip.Blocks {
			if b.Bounds.Contains(x, y) {
				want = b
				break
			}
		}
		got := chip.BlockAt(x, y)
		return got == want && chip.InFA(x, y) == (want != nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFAFractionReasonable(t *testing.T) {
	chip := New(DefaultConfig())
	fa := 0.0
	for _, b := range chip.Blocks {
		fa += b.Bounds.Area()
	}
	fa /= chip.Width * chip.Height
	if fa < 0.35 || fa > 0.75 {
		t.Fatalf("FA fraction = %v, want mid-range so BA has room for sensors", fa)
	}
}

func TestUnitAssignmentsCoverAllUnits(t *testing.T) {
	chip := New(DefaultConfig())
	counts := make(map[Unit]int)
	for _, b := range chip.Cores[0].Blocks {
		counts[b.Unit]++
	}
	if counts[Execution] < 8 {
		t.Errorf("execution unit has %d blocks, want a dominant share like real cores", counts[Execution])
	}
	for u := Frontend; u < numUnits; u++ {
		if counts[u] == 0 {
			t.Errorf("unit %v has no blocks", u)
		}
	}
}

func TestUniqueBlockNamesWithinCore(t *testing.T) {
	chip := New(DefaultConfig())
	seen := map[string]bool{}
	for _, b := range chip.Cores[0].Blocks {
		if seen[b.Name] {
			t.Fatalf("duplicate block name %q", b.Name)
		}
		seen[b.Name] = true
	}
}

func TestCoreAt(t *testing.T) {
	chip := New(DefaultConfig())
	for _, core := range chip.Cores {
		cx, cy := core.Bounds.Center()
		if got := chip.CoreAt(cx, cy); got != core {
			t.Fatalf("CoreAt(center of %d) = %v", core.Index, got)
		}
	}
	if chip.CoreAt(0.01, 0.01) != nil {
		t.Error("margin should not belong to any core")
	}
}

func TestNearestBlock(t *testing.T) {
	chip := New(DefaultConfig())
	b0 := chip.Blocks[0]
	cx, cy := b0.Bounds.Center()
	got, d := chip.NearestBlock(cx, cy)
	if got != b0 || d != 0 {
		t.Fatalf("NearestBlock at a block center = %v (d=%v)", got, d)
	}
}

func TestRectHelpers(t *testing.T) {
	r := Rect{X0: 1, Y0: 2, X1: 4, Y1: 6}
	if r.Width() != 3 || r.Height() != 4 || r.Area() != 12 {
		t.Fatalf("rect helpers wrong: w=%v h=%v a=%v", r.Width(), r.Height(), r.Area())
	}
	if !r.Contains(1, 2) || r.Contains(4, 6) {
		t.Fatal("Contains should be inclusive-low, exclusive-high")
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero cores")
		}
	}()
	New(Config{CoresX: 0, CoresY: 1, CoreWidth: 1, CoreHeight: 1})
}

func TestUnitString(t *testing.T) {
	if Frontend.String() != "frontend" || Execution.String() != "execution" {
		t.Error("Unit.String wrong")
	}
	if Unit(99).String() == "" {
		t.Error("unknown unit should still stringify")
	}
}
