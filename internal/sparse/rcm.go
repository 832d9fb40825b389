package sparse

import "fmt"

// Reverse Cuthill–McKee reordering. Both the SpMV and the IC triangular
// sweeps touch x[colIdx[k]] gather-style: the narrower the bandwidth, the
// closer those gathers stay to the rows being written and the better the
// cache behaves. Where the vectors fit in cache the sweeps cost their
// arithmetic (see batch.go); the gathers' locality keeps it that way as
// meshes grow. RCM renumbers the graph breadth-first from a
// pseudo-peripheral vertex, visiting neighbors in ascending degree, then
// reverses the ordering — the classic envelope-minimizing heuristic. On the
// regular grids the pdn assembler emits it recovers diagonal-band structure
// regardless of how nodes were originally numbered.

// RCM returns a reverse Cuthill–McKee permutation for the symmetric matrix
// a: perm[newIdx] = oldIdx. Disconnected components are each ordered from
// their own pseudo-peripheral start, in ascending order of their lowest
// original index, so the result is deterministic.
func RCM(a *CSR) []int {
	n := a.rows
	if a.cols != n {
		panic(fmt.Sprintf("sparse: RCM needs square matrix, got %dx%d", a.rows, a.cols))
	}
	deg := make([]int, n)
	for i := 0; i < n; i++ {
		// Degree excludes the diagonal so leaf detection matches graph terms.
		for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
			if a.colIdx[k] != i {
				deg[i]++
			}
		}
	}
	perm := make([]int, 0, n)
	visited := make([]bool, n)
	nbr := make([]int, 0, 16)
	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		root := pseudoPeripheral(a, start, deg, visited)
		// Cuthill–McKee BFS from root, neighbors in ascending (degree, index).
		head := len(perm)
		visited[root] = true
		perm = append(perm, root)
		for head < len(perm) {
			u := perm[head]
			head++
			nbr = nbr[:0]
			for k := a.rowPtr[u]; k < a.rowPtr[u+1]; k++ {
				v := a.colIdx[k]
				if v != u && !visited[v] {
					visited[v] = true
					nbr = append(nbr, v)
				}
			}
			// Insertion sort by (degree, index): neighbor lists are stencil-
			// sized (a handful of entries), where sort.Slice's closure and
			// interface costs dominate the actual comparisons.
			for x := 1; x < len(nbr); x++ {
				v := nbr[x]
				y := x - 1
				for y >= 0 && (deg[nbr[y]] > deg[v] || (deg[nbr[y]] == deg[v] && nbr[y] > v)) {
					nbr[y+1] = nbr[y]
					y--
				}
				nbr[y+1] = v
			}
			perm = append(perm, nbr...)
		}
	}
	// Reverse: Cuthill–McKee ordered, RCM is its mirror image.
	for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// pseudoPeripheral finds a vertex of near-maximal eccentricity in start's
// component by the George–Liu iteration: BFS from the current candidate,
// move to a minimum-degree vertex of the last BFS level, and repeat while
// the eccentricity keeps growing. It does not mark visited[].
func pseudoPeripheral(a *CSR, start int, deg []int, visited []bool) int {
	n := a.rows
	level := make([]int, n)
	queue := make([]int, 0, 64)
	cur := start
	curEcc := -1
	for {
		// BFS from cur over unvisited vertices (the current component).
		for i := range level {
			level[i] = -1
		}
		queue = queue[:0]
		queue = append(queue, cur)
		level[cur] = 0
		ecc := 0
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for k := a.rowPtr[u]; k < a.rowPtr[u+1]; k++ {
				v := a.colIdx[k]
				if v == u || visited[v] || level[v] >= 0 {
					continue
				}
				level[v] = level[u] + 1
				if level[v] > ecc {
					ecc = level[v]
				}
				queue = append(queue, v)
			}
		}
		if ecc <= curEcc {
			return cur
		}
		curEcc = ecc
		// Minimum-degree vertex of the deepest level, lowest index on ties.
		best := -1
		for _, u := range queue {
			if level[u] != ecc {
				continue
			}
			if best < 0 || deg[u] < deg[best] || (deg[u] == deg[best] && u < best) {
				best = u
			}
		}
		cur = best
	}
}

// PermuteSym returns P·A·Pᵀ for the permutation perm (perm[newIdx] =
// oldIdx): entry (i, j) of the result is a[perm[i], perm[j]], with columns
// ascending in every row. The permuted matrix is what the solver factors
// and multiplies; vectors map via x_new[i] = x_old[perm[i]].
func PermuteSym(a *CSR, perm []int) *CSR {
	n := a.rows
	if a.cols != n {
		panic(fmt.Sprintf("sparse: PermuteSym needs square matrix, got %dx%d", a.rows, a.cols))
	}
	if len(perm) != n {
		panic(fmt.Sprintf("sparse: PermuteSym perm length %d, want %d", len(perm), n))
	}
	iperm := make([]int, n)
	for newI, oldI := range perm {
		iperm[oldI] = newI
	}
	p := &CSR{
		rows: n, cols: n,
		rowPtr: make([]int, n+1),
		colIdx: make([]int, len(a.val)),
		val:    make([]float64, len(a.val)),
	}
	for newI := 0; newI < n; newI++ {
		oldI := perm[newI]
		p.rowPtr[newI+1] = p.rowPtr[newI] + (a.rowPtr[oldI+1] - a.rowPtr[oldI])
	}
	for newI := 0; newI < n; newI++ {
		oldI := perm[newI]
		base := p.rowPtr[newI]
		w := base
		for k := a.rowPtr[oldI]; k < a.rowPtr[oldI+1]; k++ {
			p.colIdx[w] = iperm[a.colIdx[k]]
			p.val[w] = a.val[k]
			w++
		}
		// Insertion sort the row by column in place: stencil rows hold a
		// handful of entries, so per-row sort.Slice overhead (two allocations
		// each) would dominate the permutation itself on big meshes.
		for x := base + 1; x < w; x++ {
			j, v := p.colIdx[x], p.val[x]
			y := x - 1
			for y >= base && p.colIdx[y] > j {
				p.colIdx[y+1], p.val[y+1] = p.colIdx[y], p.val[y]
				y--
			}
			p.colIdx[y+1], p.val[y+1] = j, v
		}
	}
	return p
}
