package sv

import (
	"fmt"
	"math/bits"

	"hisvsim/internal/gate"
	"hisvsim/internal/prof"
)

// ApplyGate applies one (possibly controlled) gate to the state, selecting
// the fastest kernel: a diagonal phase sweep, the swap exchange, the
// 1-target kernel, or the general k-target gather/scatter kernel. Control
// qubits are handled structurally (never materialized into a bigger
// matrix). The 1-target kernel (uncontrolled or under one control) and the
// diagonal kernel for gates pinning two bits (cz, cp, crz, rzz) visit only
// the amplitudes they change and walk them in contiguous runs below the
// lowest pinned bit, expanding one index per run; when that run is shorter
// than minRun amplitudes they keep a per-amplitude loop.
func (s *State) ApplyGate(g gate.Gate) error {
	for _, q := range g.Qubits {
		if q < 0 || q >= s.N {
			return fmt.Errorf("sv: gate %s qubit %d out of range [0,%d)", g.Name, q, s.N)
		}
	}
	if err := g.Validate(); err != nil {
		return fmt.Errorf("sv: %w", err)
	}
	s.Ops++

	var ctrlMask int
	for _, c := range g.Controls() {
		ctrlMask |= 1 << uint(c)
	}
	targets := g.Targets()

	n := int64(len(s.Amps))
	if d, ok := diagonalOf(g); ok {
		t0 := s.profStart()
		s.applyDiagonal(targets, ctrlMask, d)
		s.profRecord(prof.Diagonal, len(targets), t0, n, n*bytesPerAmpRW, 0)
		return nil
	}
	if g.Name == "swap" && ctrlMask == 0 {
		t0 := s.profStart()
		s.applySwap(targets[0], targets[1])
		// A swap exchanges the two mixed-bit quarters: half the amplitudes move.
		s.profRecord(prof.Dense, 2, t0, n/2, n/2*bytesPerAmpRW, 0)
		return nil
	}
	kind := prof.Dense
	if ctrlMask != 0 {
		kind = prof.Controlled
	}
	m := g.BaseMatrix()
	t0 := s.profStart()
	switch len(targets) {
	case 1:
		s.apply1(targets[0], ctrlMask, m)
		s.profRecord(kind, 1, t0, n, n*bytesPerAmpRW, 0)
	default:
		s.applyK(targets, ctrlMask, m)
		if s.Prof != nil {
			var ctrls int
			for b := 0; b < s.N; b++ {
				if ctrlMask>>uint(b)&1 == 1 {
					ctrls++
				}
			}
			s.profRecord(kind, len(targets), t0, n, n*bytesPerAmpRW,
				2*s.sweepChunks(1<<uint(s.N-len(targets)-ctrls)))
		}
	}
	return nil
}

// applySwap exchanges the amplitudes of |…1_a…0_b…⟩ and |…0_a…1_b…⟩ — no
// arithmetic needed, so it avoids the general gather/scatter kernel.
func (s *State) applySwap(a, b int) {
	abit, bbit := 1<<uint(a), 1<<uint(b)
	diff := abit | bbit
	quarter := len(s.Amps) >> 2
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	s.parallelFor(quarter, func(from, to int) {
		amps := s.Amps
		for f := from; f < to; f++ {
			// Insert 0 at both swap positions, then set bit a.
			i := insertBit(insertBit(f, lo), hi) | abit
			j := i ^ diff
			amps[i], amps[j] = amps[j], amps[i]
		}
	})
}

// diagonalOf returns the 2^k diagonal of the gate's base matrix when the
// gate is phase-only (z, s, sdg, t, tdg, rz, p/u1, rzz and their controlled
// forms), enabling the in-place phase sweep.
func diagonalOf(g gate.Gate) ([]complex128, bool) {
	if !gate.IsDiagonal(g) {
		return nil, false
	}
	m := g.BaseMatrix()
	n := m.Dim()
	d := make([]complex128, n)
	for i := 0; i < n; i++ {
		d[i] = m.At(i, i)
	}
	return d, true
}

// applyDiagonal multiplies each amplitude whose control bits are all set by
// the diagonal entry selected by its target bits. Gates that pin exactly two
// bits (cz, cp, crz, rzz) take applyDiagonal2; wider multi-controlled forms
// keep the per-amplitude test.
func (s *State) applyDiagonal(targets []int, ctrlMask int, d []complex128) {
	// Fast path: single target, no controls.
	if len(targets) == 1 && ctrlMask == 0 {
		bit := 1 << uint(targets[0])
		d0, d1 := d[0], d[1]
		s.parallelFor(len(s.Amps), func(lo, hi int) {
			amps := s.Amps
			for i := lo; i < hi; i++ {
				if i&bit == 0 {
					amps[i] *= d0
				} else {
					amps[i] *= d1
				}
			}
		})
		return
	}
	pinned := ctrlMask
	for _, t := range targets {
		pinned |= 1 << uint(t)
	}
	if bits.OnesCount(uint(pinned)) == 2 {
		s.applyDiagonal2(targets, ctrlMask, pinned, d)
		return
	}
	s.parallelFor(len(s.Amps), func(lo, hi int) {
		amps := s.Amps
		for i := lo; i < hi; i++ {
			if i&ctrlMask != ctrlMask {
				continue
			}
			sub := 0
			for j, t := range targets {
				if i>>uint(t)&1 == 1 {
					sub |= 1 << uint(j)
				}
			}
			amps[i] *= d[sub]
		}
	})
}

// applyDiagonal2 is the diagonal kernel for gates pinning two bits: two
// targets (rzz, 4 entries) or one target under one control (cz, cp, crz, 2
// entries, applied only where the control is set). It walks the quarter of
// free indices and scales each entry's contiguous run below the lower
// pinned bit.
func (s *State) applyDiagonal2(targets []int, ctrlMask, pinned int, d []complex128) {
	m0, m1 := pinMasks(bits.TrailingZeros(uint(pinned)), bits.Len(uint(pinned))-1)
	run := m0 + 1
	b0, b1 := 1<<uint(targets[0]), 0
	d0, d1, d2, d3 := d[0], d[1], complex128(0), complex128(0)
	if len(targets) == 2 {
		b1 = 1 << uint(targets[1])
		d2, d3 = d[2], d[3]
	}
	dim := len(d)
	s.parallelFor(len(s.Amps)>>2, func(from, to int) {
		offs := [4]int{0, b0, b1, b0 | b1}
		dg := [4]complex128{d0, d1, d2, d3}
		amps := s.Amps
		if run < minRun {
			for f := from; f < to; f++ {
				i := insert2(f, m0, m1) | ctrlMask
				for e := 0; e < dim; e++ {
					amps[i+offs[e]] *= dg[e]
				}
			}
			return
		}
		for f := from; f < to; {
			l := min(to-f, run-f&m0)
			scaleRuns(amps, insert2(f, m0, m1)|ctrlMask, l, offs[:dim], dg[:dim])
			f += l
		}
	})
}

// scaleRuns multiplies the l-amplitude run starting at base+offs[e] by d[e],
// for every entry e.
func scaleRuns(amps []complex128, base, l int, offs []int, d []complex128) {
	for e, o := range offs {
		x := amps[base+o:][:l]
		c := d[e]
		for j := range x {
			x[j] *= c
		}
	}
}

// insertBit returns f with a zero bit inserted at position p.
func insertBit(f, p int) int {
	low := f & ((1 << uint(p)) - 1)
	return ((f &^ ((1 << uint(p)) - 1)) << 1) | low
}

// pinMasks returns the masks insert2 uses to insert zero bits at the
// positions lo < hi: m0 covers the free bits below lo, m1 those between.
func pinMasks(lo, hi int) (m0, m1 int) {
	m0 = 1<<uint(lo) - 1
	return m0, (1<<uint(hi-1) - 1) &^ m0
}

// insert2 is insertBit(insertBit(f, lo), hi) with the masks of
// pinMasks(lo, hi) precomputed: constant shifts, no per-call mask
// arithmetic.
func insert2(f, m0, m1 int) int {
	return f&m0 | (f&m1)<<1 | (f&^(m0|m1))<<2
}

// minRun is the shortest contiguous run the kernels walk as a block. Below
// it the per-run bookkeeping costs more than the index expansions it saves,
// so each kernel keeps its per-amplitude loop.
const minRun = 8

// apply1 applies a 2x2 matrix to one target with an optional control mask.
// Uncontrolled and single-control forms walk contiguous runs below their
// lowest pinned bit (one index expansion per run); a single control pins
// its bit to 1, so only the quarter of the state it selects is visited.
func (s *State) apply1(t, ctrlMask int, m gate.Matrix) {
	m00, m01, m10, m11 := m.At(0, 0), m.At(0, 1), m.At(1, 0), m.At(1, 1)
	tbit := 1 << uint(t)
	if ctrlMask&(ctrlMask-1) != 0 {
		// Several controls: sweep pairs, act only when all are set. (The
		// control bits are disjoint from the target bit by gate validation.)
		s.parallelFor(len(s.Amps)>>1, func(lo, hi int) {
			amps := s.Amps
			for f := lo; f < hi; f++ {
				i0 := insertBit(f, t)
				if i0&ctrlMask != ctrlMask {
					continue
				}
				i1 := i0 | tbit
				a0, a1 := amps[i0], amps[i1]
				amps[i0] = m00*a0 + m01*a1
				amps[i1] = m10*a0 + m11*a1
			}
		})
		return
	}
	// With m1 covering every bit above t, insert2 inserts the target bit
	// alone; a single control narrows the sweep to the quarter it selects.
	free := len(s.Amps) >> 1
	m0, m1 := tbit-1, ^(tbit - 1)
	if ctrlMask != 0 {
		c := bits.TrailingZeros(uint(ctrlMask))
		m0, m1 = pinMasks(min(t, c), max(t, c))
		free >>= 1
	}
	run := m0 + 1
	s.parallelFor(free, func(lo, hi int) {
		amps := s.Amps
		if run < minRun {
			for f := lo; f < hi; f++ {
				i0 := insert2(f, m0, m1) | ctrlMask
				i1 := i0 | tbit
				a0, a1 := amps[i0], amps[i1]
				amps[i0] = m00*a0 + m01*a1
				amps[i1] = m10*a0 + m11*a1
			}
			return
		}
		for f := lo; f < hi; {
			l := min(hi-f, run-f&m0)
			i0 := insert2(f, m0, m1) | ctrlMask
			x0, x1 := amps[i0:][:l], amps[i0+tbit:][:l]
			for j, a0 := range x0 {
				a1 := x1[j]
				x0[j] = m00*a0 + m01*a1
				x1[j] = m10*a0 + m11*a1
			}
			f += l
		}
	})
}

// applyK is the general kernel: it gathers the 2^k amplitudes addressed by
// the target bits for every assignment of the remaining bits (with control
// bits pinned to 1), multiplies by the base matrix, and scatters back.
func (s *State) applyK(targets []int, ctrlMask int, m gate.Matrix) {
	k := len(targets)
	nFixed := k
	fixed := append([]int(nil), targets...)
	for b := 0; b < s.N; b++ {
		if ctrlMask>>uint(b)&1 == 1 {
			fixed = append(fixed, b)
			nFixed++
		}
	}
	sortInts(fixed)
	freeBits := s.N - nFixed
	tbits := make([]int, k)
	for j, t := range targets {
		tbits[j] = 1 << uint(t)
	}
	dim := 1 << uint(k)
	s.parallelFor(1<<uint(freeBits), func(lo, hi int) {
		amps := s.Amps
		sub := make([]complex128, dim)
		res := make([]complex128, dim)
		for f := lo; f < hi; f++ {
			base := f
			for _, p := range fixed {
				base = insertBit(base, p)
			}
			base |= ctrlMask
			for sIdx := 0; sIdx < dim; sIdx++ {
				idx := base
				for j := 0; j < k; j++ {
					if sIdx>>uint(j)&1 == 1 {
						idx |= tbits[j]
					}
				}
				sub[sIdx] = amps[idx]
			}
			for r := 0; r < dim; r++ {
				var acc complex128
				row := m.Data[r*dim : (r+1)*dim]
				for cIdx := 0; cIdx < dim; cIdx++ {
					acc += row[cIdx] * sub[cIdx]
				}
				res[r] = acc
			}
			for sIdx := 0; sIdx < dim; sIdx++ {
				idx := base
				for j := 0; j < k; j++ {
					if sIdx>>uint(j)&1 == 1 {
						idx |= tbits[j]
					}
				}
				amps[idx] = res[sIdx]
			}
		}
	})
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
