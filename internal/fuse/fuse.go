// Package fuse implements gate fusion: coalescing runs of consecutive gates
// whose combined qubit support stays small into single dense 2^k×2^k
// unitaries (or single 2^k diagonals for phase-only runs), so that deep
// circuits sweep the state vector once per block instead of once per gate.
// The paper positions such gate-level batching as orthogonal to partitioning
// (§II-C); here it multiplies with it: every executor fuses within the
// partition-bounded working sets it already has in cache.
//
// Fusion is greedy over the gate sequence with two guards:
//
//   - a support cap (MaxQubits for dense blocks, MaxDiagQubits for diagonal
//     runs, which cost one multiply per amplitude regardless of k), and
//   - a per-amplitude cost model that only extends a dense block when the
//     grown 2^k matrix kernel is estimated to beat applying the incoming
//     gate in its own sweep (charging sweepOverhead per extra pass to model
//     memory traffic).
//
// A block of one gate stays a passthrough so the simulator's dedicated
// fast paths (diagonal sweep, swap, 2×2 kernel) keep applying.
//
// Executors never apply blocks themselves: they compile each gate run once
// into a Program (fused, or one passthrough block per gate) and apply that.
package fuse

import (
	"fmt"
	"sort"

	"hisvsim/internal/circuit"
	"hisvsim/internal/gate"
	"hisvsim/internal/sv"
)

// Kind discriminates how a block is executed.
type Kind int

const (
	// Single is a passthrough block: one gate applied via State.ApplyGate.
	Single Kind = iota
	// Dense is a fused 2^k×2^k unitary over Qubits.
	Dense
	// Diagonal is a fused 2^k diagonal over Qubits.
	Diagonal
)

// Block is one fused execution unit.
type Block struct {
	Kind   Kind
	Qubits []int        // sorted support (Dense and Diagonal kinds)
	Matrix gate.Matrix  // Dense: the fused unitary, little-endian over Qubits
	Diag   []complex128 // Diagonal: the fused diagonal over Qubits
	Gates  []gate.Gate  // the source gates, in application order
}

// Options configures fusion. Zero values select the defaults.
type Options struct {
	// MaxQubits caps the support of dense fused blocks (default 5). When
	// set explicitly it also caps diagonal runs unless MaxDiagQubits says
	// otherwise, so one knob bounds every fused table.
	MaxQubits int
	// MaxDiagQubits caps the support of fused diagonal runs (default 10
	// when MaxQubits is defaulted too, else MaxQubits); diagonal
	// application costs one multiply per amplitude regardless of k, so the
	// cap only bounds the 2^k diagonal table.
	MaxDiagQubits int
	// NoReorder disables the diagonal-grouping pre-pass (commuting diagonal
	// gates left past disjoint gates to lengthen diagonal runs).
	NoReorder bool
}

// DefaultMaxQubits is the dense fused-block support cap.
const DefaultMaxQubits = 5

// DefaultMaxDiagQubits is the diagonal-run support cap.
const DefaultMaxDiagQubits = 10

// CheckMaxQubits validates a caller-supplied support cap: 0 selects the
// defaults, and an explicit value, which also caps diagonal runs, must stay
// within DefaultMaxDiagQubits so no fused table outgrows the default
// diagonal one (2^10 entries).
func CheckMaxQubits(k int) error {
	if k < 0 || k > DefaultMaxDiagQubits {
		return fmt.Errorf("fuse: max fused-block support %d out of range [0,%d]", k, DefaultMaxDiagQubits)
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.MaxDiagQubits <= 0 {
		// An explicit dense cap bounds diagonal tables too (the documented
		// MaxFuseQubits contract); only the full defaults split 5/10.
		if o.MaxQubits > 0 {
			o.MaxDiagQubits = o.MaxQubits
		} else {
			o.MaxDiagQubits = DefaultMaxDiagQubits
		}
	}
	if o.MaxQubits <= 0 {
		o.MaxQubits = DefaultMaxQubits
	}
	return o
}

// sweepOverhead is the per-amplitude cost charged for every extra full-state
// sweep a separate gate application would take (models memory traffic: each
// sweep reads and writes the whole vector). Calibrated conservatively — on
// cache-resident states a sweep costs about as much as one table-lookup
// pass, so dense blocks only grow when their supports substantially overlap
// (same-qubit singles, same-pair two-qubit runs); over-eager dense merging
// trades cheap specialized kernels for 2^k matrix rows and loses.
const sweepOverhead = 1.0

// gateCost estimates the per-amplitude cost of applying g unfused,
// including its sweep overhead.
func gateCost(g gate.Gate) float64 {
	if gate.IsDiagonal(g) {
		return 1 + sweepOverhead
	}
	if g.Name == "swap" && g.Ctrl == 0 {
		return 1 + sweepOverhead
	}
	t := len(g.Targets())
	if t <= 1 {
		return 2 + sweepOverhead
	}
	return float64(int(1)<<uint(t)) + 2 + sweepOverhead
}

// denseCost is the per-amplitude cost of one fused dense sweep on k qubits
// (2^k multiply-adds plus gather/scatter), excluding the shared sweep
// overhead, which both sides of every comparison pay exactly once.
func denseCost(k int) float64 { return float64(int(1)<<uint(k)) + 2 }

// Fuse coalesces the gate sequence into fused blocks. The concatenation of
// all blocks' unitaries equals the sequence's unitary exactly; only
// commuting reorderings (diagonal grouping) are applied unless NoReorder.
func Fuse(gates []gate.Gate, opts Options) ([]Block, error) {
	opts = opts.withDefaults()
	for i, g := range gates {
		if err := g.Validate(); err != nil {
			return nil, fmt.Errorf("fuse: gate %d: %w", i, err)
		}
	}
	if !opts.NoReorder {
		gates = circuit.GroupDiagonalGates(gates)
	}

	var blocks []Block
	var run []gate.Gate
	var support []int
	allDiag := false

	// curCost is the per-amplitude cost of the running block's current
	// representation (diagonal sweep, dense kernel, or single passthrough).
	curCost := func() float64 {
		if allDiag {
			return 1
		}
		if len(run) == 1 {
			return gateCost(run[0]) - sweepOverhead
		}
		return denseCost(len(support))
	}
	flush := func() {
		if len(run) == 0 {
			return
		}
		blocks = append(blocks, materialize(run, support, allDiag))
		run, support = nil, nil
	}

	for _, g := range gates {
		qs := g.SortedQubits()
		d := gate.IsDiagonal(g)
		if len(run) == 0 {
			run, support, allDiag = []gate.Gate{g}, qs, d
			continue
		}
		u := unionSorted(support, qs)
		noGrowth := len(u) == len(support) && !allDiag && len(u) <= opts.MaxQubits
		switch {
		case allDiag && d && len(u) <= opts.MaxDiagQubits:
			// Diagonal runs extend freely: cost stays one multiply/amp.
			run, support = append(run, g), u
		case noGrowth:
			// The gate fits inside a dense block's existing support: the
			// kernel size is unchanged, so absorbing it saves g's whole sweep
			// for free (e.g. the cx·rz·cx phase gadget collapses to one
			// 2-qubit block).
			run = append(run, g)
		case len(u) <= opts.MaxQubits && denseCost(len(u)) <= curCost()+gateCost(g):
			run, support = append(run, g), u
			allDiag = allDiag && d
		default:
			flush()
			run, support, allDiag = []gate.Gate{g}, qs, d
		}
	}
	flush()
	return blocks, nil
}

// materialize builds the executable form of one block.
func materialize(run []gate.Gate, support []int, allDiag bool) Block {
	gs := append([]gate.Gate(nil), run...)
	qs := append([]int(nil), support...)
	if len(gs) == 1 {
		return Block{Kind: Single, Qubits: qs, Gates: gs}
	}
	if allDiag {
		return Block{Kind: Diagonal, Qubits: qs, Diag: buildDiagonal(qs, gs), Gates: gs}
	}
	return Block{Kind: Dense, Qubits: qs, Matrix: buildMatrix(qs, gs), Gates: gs}
}

// buildDiagonal multiplies the gates' full diagonals (controls pin entries
// to 1) over the block support.
func buildDiagonal(qs []int, gates []gate.Gate) []complex128 {
	pos := positionOf(qs)
	d := make([]complex128, 1<<uint(len(qs)))
	for i := range d {
		d[i] = 1
	}
	for _, g := range gates {
		m := g.BaseMatrix()
		base := make([]complex128, m.Dim())
		for i := range base {
			base[i] = m.At(i, i)
		}
		cmask := 0
		for _, c := range g.Controls() {
			cmask |= 1 << uint(pos[c])
		}
		tpos := make([]int, 0, len(g.Targets()))
		for _, t := range g.Targets() {
			tpos = append(tpos, pos[t])
		}
		for idx := range d {
			if idx&cmask != cmask {
				continue
			}
			sub := 0
			for j, tp := range tpos {
				if idx>>uint(tp)&1 == 1 {
					sub |= 1 << uint(j)
				}
			}
			d[idx] *= base[sub]
		}
	}
	return d
}

// buildMatrix multiplies the gates' embedded full unitaries over the block
// support (later gates multiply from the left: they apply after).
func buildMatrix(qs []int, gates []gate.Gate) gate.Matrix {
	k := len(qs)
	pos := positionOf(qs)
	u := gate.Identity(k)
	for _, g := range gates {
		full := g.FullMatrix()
		j := full.K
		ext := full
		if j < k {
			ext = gate.Identity(k - j).Kron(full)
		}
		// Old bit i of ext is the gate's i-th listed qubit (controls first);
		// route it to that qubit's position in the block support, and park
		// the identity bits on the unused positions.
		perm := make([]int, k)
		used := make([]bool, k)
		for i, q := range g.Qubits {
			perm[i] = pos[q]
			used[pos[q]] = true
		}
		next := 0
		for i := j; i < k; i++ {
			for used[next] {
				next++
			}
			perm[i] = next
			used[next] = true
		}
		u = ext.Permuted(perm).Mul(u)
	}
	return u
}

// Plan precomputes the per-block kernel index tables for applying blocks to
// n-qubit states (nil entries for passthrough blocks). The result is
// read-only and safe to share across goroutines.
func Plan(blocks []Block, n int) []*sv.FusedPlan {
	plans := make([]*sv.FusedPlan, len(blocks))
	for i := range blocks {
		if blocks[i].Kind != Single {
			plans[i] = sv.PrepareFused(n, blocks[i].Qubits)
		}
	}
	return plans
}

// GateCount returns the number of source gates across all blocks.
func GateCount(blocks []Block) int {
	n := 0
	for _, b := range blocks {
		n += len(b.Gates)
	}
	return n
}

// Sweeps returns the number of state-vector sweeps the blocks take (one per
// block), the quantity fusion minimizes.
func Sweeps(blocks []Block) int { return len(blocks) }

func positionOf(qs []int) map[int]int {
	pos := make(map[int]int, len(qs))
	for i, q := range qs {
		pos[q] = i
	}
	return pos
}

func unionSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	out = append(out, a...)
	for _, q := range b {
		i := sort.SearchInts(out, q)
		if i < len(out) && out[i] == q {
			continue
		}
		out = append(out, 0)
		copy(out[i+1:], out[i:])
		out[i] = q
	}
	return out
}
