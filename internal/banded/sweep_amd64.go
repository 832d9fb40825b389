package banded

// solveColsAVX2 runs solveColsGo's forward and backward sweeps on columns
// [0, 4·nv) of the m interleaved columns in x, four columns per vector:
// each vector keeps one accumulator register per k mod 4, adds the
// trailing terms into the first and sums them as (a0+a1)+(a2+a3), with
// separate multiplies and adds, so every column's bits equal solveColsGo's.
// It requires 1 <= nv <= m/4 and len(x) == n*m.
//
//go:noescape
func solveColsAVX2(data, rdiag, x []float64, n, bw, m, nv int)
