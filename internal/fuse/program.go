package fuse

import (
	"fmt"

	"hisvsim/internal/gate"
	"hisvsim/internal/sv"
)

// This file compiles a gate run once into the form every executor replays.
// Programs also serve parameterized circuits, because fusion structure is
// angle-independent: diagonality (gate.IsDiagonal) and the fusion cost
// model consult only gate names and qubit supports, never Params. A program
// compiled at placeholder angles therefore has the right block boundaries,
// supports and kernel index tables for every binding. Only the numeric
// payloads (dense matrices, diagonal tables, Single gates) of symbol-touched
// blocks need rebuilding per binding; everything else is shared read-only.

// Parametric reports whether any source gate of the block carries a
// symbolic parameter (i.e. its Matrix/Diag depend on the binding).
func (b *Block) Parametric() bool {
	for _, g := range b.Gates {
		if g.Parametric() {
			return true
		}
	}
	return false
}

// Specialize returns a concrete copy of the block for one binding: source
// gates bound, and the dense matrix or diagonal rebuilt from the bound
// angles. Blocks with no symbolic gates are returned unchanged (sharing
// their read-only payloads).
func (b *Block) Specialize(env map[string]float64) (Block, error) {
	if !b.Parametric() {
		return *b, nil
	}
	gs := make([]gate.Gate, len(b.Gates))
	for i, g := range b.Gates {
		bg, err := g.Bind(env)
		if err != nil {
			return Block{}, fmt.Errorf("fuse: %w", err)
		}
		gs[i] = bg
	}
	out := Block{Kind: b.Kind, Qubits: b.Qubits, Gates: gs}
	switch b.Kind {
	case Diagonal:
		out.Diag = buildDiagonal(b.Qubits, gs)
	case Dense:
		out.Matrix = buildMatrix(b.Qubits, gs)
	}
	return out, nil
}

// Program is a gate run compiled once for N-qubit states: its blocks, the
// shared kernel plans, and the indices of the blocks a symbol binding has
// to rebuild. It is the one form in which every executor runs gates. A
// Program is immutable after Compile and safe for concurrent Apply and
// Specialize calls.
type Program struct {
	N       int             // qubit count of the states the program applies to
	Blocks  []Block         // Gates keep their symbolic Args when parameterized
	Plans   []*sv.FusedPlan // per-block kernel index tables (nil for Single blocks)
	touched []int           // indices into Blocks of parametric blocks
}

// Compile compiles a gate run for n-qubit states. With fused set the gates
// coalesce into dense/diagonal blocks as Fuse does under opts. Unfused,
// every gate becomes its own Single block in source order, with no diagonal
// regrouping, so Apply matches sv.State.ApplyGates bit for bit.
func Compile(gates []gate.Gate, n int, fused bool, opts Options) (*Program, error) {
	var blocks []Block
	if fused {
		var err error
		if blocks, err = Fuse(gates, opts); err != nil {
			return nil, err
		}
	} else {
		blocks = make([]Block, len(gates))
		for i, g := range gates {
			if err := g.Validate(); err != nil {
				return nil, fmt.Errorf("fuse: gate %d: %w", i, err)
			}
			blocks[i] = Block{Kind: Single, Qubits: g.SortedQubits(), Gates: gates[i : i+1 : i+1]}
		}
	}
	p := &Program{N: n, Blocks: blocks, Plans: Plan(blocks, n)}
	for i := range blocks {
		if blocks[i].Parametric() {
			p.touched = append(p.touched, i)
		}
	}
	return p, nil
}

// TouchedBlocks returns how many blocks a binding rebuilds (the rest are
// shared); it is the program's per-binding specialization cost in blocks.
func (p *Program) TouchedBlocks() int { return len(p.touched) }

// Specialize returns the concrete program for one binding: a shallow copy
// whose symbol-touched blocks are rebuilt for env, while every other block
// and all kernel plans alias the receiver read-only. Concrete programs are
// returned unchanged.
func (p *Program) Specialize(env map[string]float64) (*Program, error) {
	if len(p.touched) == 0 {
		return p, nil
	}
	out := &Program{N: p.N, Blocks: append([]Block(nil), p.Blocks...), Plans: p.Plans}
	for _, i := range p.touched {
		b, err := p.Blocks[i].Specialize(env)
		if err != nil {
			return nil, err
		}
		out.Blocks[i] = b
	}
	return out, nil
}

// Apply executes the blocks against the state in order. The state must
// have the program's N qubits.
func (p *Program) Apply(st *sv.State) error {
	for i := range p.Blocks {
		b := &p.Blocks[i]
		switch b.Kind {
		case Single:
			if err := st.ApplyGate(b.Gates[0]); err != nil {
				return err
			}
		case Diagonal:
			st.ApplyFusedDiagonalPlan(p.Plans[i], b.Diag)
		case Dense:
			st.ApplyFusedPlan(p.Plans[i], b.Matrix)
		default:
			return fmt.Errorf("fuse: unknown block kind %d", b.Kind)
		}
	}
	return nil
}

// MemoryBytes estimates the program's resident size for cache budgeting:
// fused matrices and diagonals, source gates, and scatter-offset tables.
func (p *Program) MemoryBytes() int64 {
	var b int64
	for i := range p.Blocks {
		blk := &p.Blocks[i]
		b += int64(len(blk.Matrix.Data)+len(blk.Diag))*16 + int64(len(blk.Gates))*64
		if p.Plans[i] != nil {
			b += int64(1) << uint(len(blk.Qubits)+3)
		}
	}
	return b
}
