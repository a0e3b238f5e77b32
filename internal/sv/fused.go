package sv

import (
	"fmt"

	"hisvsim/internal/gate"
	"hisvsim/internal/prof"
)

// This file holds the fused-block kernels: applying one dense 2^k×2^k
// unitary (or one 2^k diagonal) produced by gate fusion to k target qubits
// in a single sweep over the state vector. The sweep runs over the free
// indices (the n−k non-target bits). Amplitudes whose free bits lie below
// the lowest target are contiguous, so the kernels walk the state in runs
// of 2^lowest-target amplitudes and expand an index once per run instead
// of once per amplitude; runs shorter than minRun fall back to the
// per-amplitude loop. Dense k=1 blocks run apply1, dense k=2 blocks run
// applyDense2 with the 4×4 matrix held in locals, and k≥3 blocks run the
// generic gather/scatter loop, whose index tables (stride masks and the 2^k
// scatter offsets) are precomputed once per plan.

// strideMasks returns the k+1 masks that expand a free index f (counting
// over the n−k non-target bits) into an amplitude index with zero bits at
// the sorted target positions: expand(f) = Σ_i (f & masks[i]) << i.
func strideMasks(n int, sorted []int) []uint64 {
	k := len(sorted)
	masks := make([]uint64, k+1)
	lo := 0
	for i := 0; i <= k; i++ {
		hi := n - k // bits of f live in [0, n-k)
		if i < k {
			hi = sorted[i] - i
		}
		if hi < lo {
			hi = lo
		}
		masks[i] = (uint64(1)<<uint(hi) - 1) &^ (uint64(1)<<uint(lo) - 1)
		lo = hi
	}
	return masks
}

// expandIndex applies the stride masks to a free index.
func expandIndex(f int, masks []uint64) int {
	uf := uint64(f)
	var base uint64
	for i, m := range masks {
		base |= (uf & m) << uint(i)
	}
	return int(base)
}

// scatterOffsets returns the 2^k offsets addressed by every assignment of
// the target bits: offs[s] = Σ_j bit_j(s) << sorted[j].
func scatterOffsets(sorted []int) []int {
	k := len(sorted)
	offs := make([]int, 1<<uint(k))
	for s := range offs {
		o := 0
		for j := 0; j < k; j++ {
			if s>>uint(j)&1 == 1 {
				o |= 1 << uint(sorted[j])
			}
		}
		offs[s] = o
	}
	return offs
}

// FusedPlan caches the index tables the fused kernels need for one (state
// size, target set): the stride masks and the 2^k scatter-offset table.
// Executors that sweep the same block 2^(n-w) times build the plan once
// (PrepareFused) instead of recomputing the tables every call.
type FusedPlan struct {
	N      int   // state size the plan was built for
	Qubits []int // sorted target qubits
	masks  []uint64
	offs   []int
}

// PrepareFused validates the target set (strictly ascending, in range for
// an n-qubit state) and precomputes the kernel index tables.
func PrepareFused(n int, qubits []int) *FusedPlan {
	for i, q := range qubits {
		if q < 0 || q >= n {
			panic(fmt.Sprintf("sv: fused qubit %d out of range [0,%d)", q, n))
		}
		if i > 0 && qubits[i-1] >= q {
			panic(fmt.Sprintf("sv: fused qubits %v not strictly ascending", qubits))
		}
	}
	return &FusedPlan{N: n, Qubits: qubits,
		masks: strideMasks(n, qubits), offs: scatterOffsets(qubits)}
}

func (s *State) checkPlan(p *FusedPlan) {
	if p.N != s.N {
		panic(fmt.Sprintf("sv: fused plan for %d qubits applied to %d-qubit state", p.N, s.N))
	}
}

// ApplyFused applies a dense 2^k×2^k unitary to the k sorted target qubits
// (little-endian: qubits[0] is the least-significant bit of the matrix
// index). The sweep parallelizes over the free indices via parallelFor.
func (s *State) ApplyFused(qubits []int, m gate.Matrix) {
	s.ApplyFusedPlan(PrepareFused(s.N, qubits), m)
}

// ApplyFusedPlan is ApplyFused with the index tables precomputed.
func (s *State) ApplyFusedPlan(p *FusedPlan, m gate.Matrix) {
	k := len(p.Qubits)
	if m.K != k {
		panic(fmt.Sprintf("sv: fused matrix on %d qubits applied to %d targets", m.K, k))
	}
	s.checkPlan(p)
	if k == 0 {
		return
	}
	s.Ops++
	t0 := s.profStart()
	switch k {
	case 1:
		s.apply1(p.Qubits[0], 0, m)
		s.profRecord(prof.Dense, 1, t0, int64(len(s.Amps)), int64(len(s.Amps))*bytesPerAmpRW, 0)
		return
	case 2:
		s.applyDense2(p.Qubits[0], p.Qubits[1], m)
		s.profRecord(prof.Dense, 2, t0, int64(len(s.Amps)), int64(len(s.Amps))*bytesPerAmpRW, 0)
		return
	}
	dim := 1 << uint(k)
	masks := p.masks
	offs := p.offs
	free := 1 << uint(s.N-k)
	s.parallelFor(free, func(lo, hi int) {
		amps := s.Amps
		sub := make([]complex128, dim)
		res := make([]complex128, dim)
		for f := lo; f < hi; f++ {
			base := expandIndex(f, masks)
			for si := 0; si < dim; si++ {
				sub[si] = amps[base|offs[si]]
			}
			for r := 0; r < dim; r++ {
				row := m.Data[r*dim : (r+1)*dim]
				var acc complex128
				for ci := 0; ci < dim; ci++ {
					acc += row[ci] * sub[ci]
				}
				res[r] = acc
			}
			for si := 0; si < dim; si++ {
				amps[base|offs[si]] = res[si]
			}
		}
	})
	s.profRecord(prof.Dense, k, t0, int64(len(s.Amps)),
		int64(len(s.Amps))*bytesPerAmpRW, 2*s.sweepChunks(free))
}

// applyDense2 applies a dense 4×4 matrix to the qubits q0 < q1 (q0 is bit 0
// of the matrix index). The matrix lives in locals and each free index
// addresses its four amplitudes by fixed offsets, so no scratch vector is
// gathered; runs of 2^q0 amplitudes share one index expansion.
func (s *State) applyDense2(q0, q1 int, m gate.Matrix) {
	o1, o2 := 1<<uint(q0), 1<<uint(q1)
	o3 := o1 | o2
	m0, m1 := pinMasks(q0, q1)
	md := m.Data[:16]
	s.parallelFor(len(s.Amps)>>2, func(lo, hi int) {
		m00, m01, m02, m03 := md[0], md[1], md[2], md[3]
		m10, m11, m12, m13 := md[4], md[5], md[6], md[7]
		m20, m21, m22, m23 := md[8], md[9], md[10], md[11]
		m30, m31, m32, m33 := md[12], md[13], md[14], md[15]
		amps := s.Amps
		if o1 < minRun {
			for f := lo; f < hi; f++ {
				i := insert2(f, m0, m1)
				a0, a1, a2, a3 := amps[i], amps[i|o1], amps[i|o2], amps[i|o3]
				amps[i] = m00*a0 + m01*a1 + m02*a2 + m03*a3
				amps[i|o1] = m10*a0 + m11*a1 + m12*a2 + m13*a3
				amps[i|o2] = m20*a0 + m21*a1 + m22*a2 + m23*a3
				amps[i|o3] = m30*a0 + m31*a1 + m32*a2 + m33*a3
			}
			return
		}
		for f := lo; f < hi; {
			l := min(hi-f, o1-f&m0)
			i := insert2(f, m0, m1)
			x0 := amps[i:][:l]
			x1 := amps[i+o1:][:l]
			x2 := amps[i+o2:][:l]
			x3 := amps[i+o3:][:l]
			for j, a0 := range x0 {
				a1, a2, a3 := x1[j], x2[j], x3[j]
				x0[j] = m00*a0 + m01*a1 + m02*a2 + m03*a3
				x1[j] = m10*a0 + m11*a1 + m12*a2 + m13*a3
				x2[j] = m20*a0 + m21*a1 + m22*a2 + m23*a3
				x3[j] = m30*a0 + m31*a1 + m32*a2 + m33*a3
			}
			f += l
		}
	})
}

// ApplyFusedDiagonal multiplies the amplitudes addressed by the k sorted
// target qubits by the 2^k diagonal d (one in-place sweep, no gather).
func (s *State) ApplyFusedDiagonal(qubits []int, d []complex128) {
	s.ApplyFusedDiagonalPlan(PrepareFused(s.N, qubits), d)
}

// ApplyFusedDiagonalPlan is ApplyFusedDiagonal with the index tables
// precomputed.
func (s *State) ApplyFusedDiagonalPlan(p *FusedPlan, d []complex128) {
	k := len(p.Qubits)
	if len(d) != 1<<uint(k) {
		panic(fmt.Sprintf("sv: fused diagonal has %d entries for %d qubits", len(d), k))
	}
	s.checkPlan(p)
	if k == 0 {
		return
	}
	s.Ops++
	dim := 1 << uint(k)
	masks := p.masks
	offs := p.offs
	free := 1 << uint(s.N-k)
	t0 := s.profStart()
	run := 1 << uint(p.Qubits[0])
	s.parallelFor(free, func(lo, hi int) {
		amps := s.Amps
		if run < minRun {
			for f := lo; f < hi; f++ {
				base := expandIndex(f, masks)
				for si := 0; si < dim; si++ {
					amps[base|offs[si]] *= d[si]
				}
			}
			return
		}
		for f := lo; f < hi; {
			l := min(hi-f, run-f&(run-1))
			scaleRuns(amps, expandIndex(f, masks), l, offs, d)
			f += l
		}
	})
	s.profRecord(prof.Diagonal, k, t0, int64(len(s.Amps)),
		int64(len(s.Amps))*bytesPerAmpRW, 0)
}
