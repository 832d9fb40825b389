package sparse

// Level scheduling for the IC(0) triangular sweeps. A forward substitution
// with L is sequential row by row only in appearance: row i depends solely
// on the rows named by its off-diagonal columns, so rows can be grouped into
// levels — level(i) = 1 + max(level(j) : j a dependency of i) — and every
// row within a level solved concurrently. The level sets are a property of
// the sparsity pattern alone, so they are built once at factor time; on a
// 2D mesh they are the anti-diagonal wavefronts (NX+NY-1 levels of up to
// min(NX, NY) rows each), and RCM reordering keeps them tight on irregular
// meshes.
//
// Determinism: a row's value is computed by exactly one share with the same
// per-element operation order as the sequential sweep — dependencies are
// fully resolved in earlier levels — so the parallel sweep is bitwise
// identical to the serial one at any worker count.

// levelRowChunk is the minimum rows of one level handled per share; levels
// narrower than 2*levelRowChunk run inline, which keeps the per-level
// dispatch overhead off small wavefronts.
const levelRowChunk = 512

// levelSchedule groups the rows of a triangular CSR into dependency levels:
// rows[ptr[l]:ptr[l+1]] lists the rows of level l in ascending order.
type levelSchedule struct {
	ptr  []int
	rows []int
}

// buildLevels computes the dependency levels of a triangular matrix given
// row-wise dependency column lists: deps(i) must yield the columns of row i
// excluding the diagonal. Rows must be solvable in natural order 0..n-1
// (lower triangle) — callers with an upper triangle pass reversed indices.
func buildLevels(n int, deps func(i int) []int) levelSchedule {
	level := make([]int, n)
	maxLevel := 0
	for i := 0; i < n; i++ {
		l := 0
		for _, j := range deps(i) {
			if level[j] >= l {
				l = level[j] + 1
			}
		}
		level[i] = l
		if l > maxLevel {
			maxLevel = l
		}
	}
	sched := levelSchedule{
		ptr:  make([]int, maxLevel+2),
		rows: make([]int, n),
	}
	for _, l := range level {
		sched.ptr[l+1]++
	}
	for l := 0; l <= maxLevel; l++ {
		sched.ptr[l+1] += sched.ptr[l]
	}
	next := make([]int, maxLevel+1)
	copy(next, sched.ptr[:maxLevel+1])
	for i := 0; i < n; i++ {
		l := level[i]
		sched.rows[next[l]] = i
		next[l]++
	}
	return sched
}

// numLevels returns the level count.
func (s *levelSchedule) numLevels() int { return len(s.ptr) - 1 }

// buildSchedules attaches the forward and backward level schedules and the
// prebuilt parallel sweep stages to the factor. Called once by newIC.
func (m *IC) buildSchedules() {
	l, lt := m.l, m.lt
	// Forward sweep with L: row i depends on its off-diagonal columns
	// (diagonal is stored last in each row).
	m.fwd = buildLevels(m.n, func(i int) []int {
		return l.colIdx[l.rowPtr[i] : l.rowPtr[i+1]-1]
	})
	// Backward sweep with Lᵀ: row i depends on columns j > i (diagonal is
	// stored first). Solve order is n-1..0, so build levels on reversed
	// indices: virtual row r = n-1-i depends on virtual rows n-1-j.
	n := m.n
	revDeps := make([]int, 0, 8)
	m.bwd = buildLevels(n, func(r int) []int {
		i := n - 1 - r
		revDeps = revDeps[:0]
		for k := lt.rowPtr[i] + 1; k < lt.rowPtr[i+1]; k++ {
			revDeps = append(revDeps, n-1-lt.colIdx[k])
		}
		return revDeps
	})
	// The stages load the factor arrays and operands into locals once per
	// share, so the store to z cannot force them to be reloaded.
	lRowPtr, lColIdx, lVal := l.rowPtr, l.colIdx, l.val
	ltRowPtr, ltColIdx, ltVal := lt.rowPtr, lt.colIdx, lt.val
	m.fwdStage = func(lo, hi int) {
		z, r := m.z, m.r
		for _, i := range m.rowsCur[lo:hi] {
			start, end := lRowPtr[i], lRowPtr[i+1]-1 // diagonal is last
			vals := lVal[start:end]
			s := r[i]
			for k, j := range lColIdx[start:end] {
				s -= vals[k] * z[j]
			}
			z[i] = s / lVal[end]
		}
	}
	m.bwdStage = func(lo, hi int) {
		z := m.z
		for _, ri := range m.rowsCur[lo:hi] {
			i := n - 1 - ri
			start, end := ltRowPtr[i], ltRowPtr[i+1] // diagonal is first
			vals := ltVal[start+1 : end]
			s := z[i]
			for k, j := range ltColIdx[start+1 : end] {
				s -= vals[k] * z[j]
			}
			z[i] = s / ltVal[start]
		}
	}
}

// applyTeam solves L·Lᵀ·z = r with level-scheduled parallel sweeps. Within
// each level every row is independent; the team partitions the level's row
// list, so the result is bitwise identical to the sequential Apply.
func (m *IC) applyTeam(o *ops, z, r []float64) {
	m.z, m.r = z, r
	for l := 0; l < m.fwd.numLevels(); l++ {
		m.rowsCur = m.fwd.rows[m.fwd.ptr[l]:m.fwd.ptr[l+1]]
		o.t.run(len(m.rowsCur), levelRowChunk, m.fwdStage)
	}
	for l := 0; l < m.bwd.numLevels(); l++ {
		m.rowsCur = m.bwd.rows[m.bwd.ptr[l]:m.bwd.ptr[l+1]]
		o.t.run(len(m.rowsCur), levelRowChunk, m.bwdStage)
	}
	m.z, m.r, m.rowsCur = nil, nil, nil
}

// Levels reports the forward and backward level counts of the factor's
// sparsity pattern — the sequential depth of the parallel triangular sweeps
// (diagnostics and tests).
func (m *IC) Levels() (fwd, bwd int) {
	return m.fwd.numLevels(), m.bwd.numLevels()
}
