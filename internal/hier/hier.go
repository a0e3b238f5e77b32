// Package hier implements the paper's hierarchical part-based execution
// model (§III-B/C, Algorithm 1): for each part of an acyclic partitioning,
// the amplitudes addressed by the part's qubits are gathered from the outer
// state vector into a small inner state vector, all of the part's gates are
// applied to the inner vector, and the results are scattered back. With a
// second-level limit set, each part is recursively partitioned so the
// innermost vectors stay cache-resident (the paper's multi-level HiSVSIM).
//
// Each part's gates compile once into a fuse.Program. With Options.Fuse set
// they coalesce into dense/diagonal fused blocks, so every
// gather/execute/scatter cycle sweeps the inner vector once per block
// instead of once per gate; unfused, the program holds one passthrough
// block per gate. Independent sweeps of one part are executed in
// parallel across Workers goroutines (they touch disjoint slices of the
// outer vector), and a part whose working set spans the whole register is
// applied directly to the outer state through the parallel kernels.
package hier

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"hisvsim/internal/circuit"
	"hisvsim/internal/dag"
	"hisvsim/internal/fuse"
	"hisvsim/internal/gate"
	"hisvsim/internal/partition"
	"hisvsim/internal/prof"
	"hisvsim/internal/sv"
)

// Options configures hierarchical execution.
type Options struct {
	// Ctx, when non-nil, is polled at part boundaries: a cancelled or
	// timed-out context aborts the run with the context's error. Carried in
	// Options (rather than a parameter) so the existing ExecutePlan/Run call
	// surface stays stable.
	Ctx context.Context
	// SecondLevelLm, when > 0, re-partitions each part's gates with this
	// tighter working-set limit and executes them through a second
	// gather/execute/scatter level (multi-level HiSVSIM). The second level
	// uses the same strategy kind as the plan when possible.
	SecondLevelLm int
	// SecondLevel is the partitioner used for the second level; nil selects
	// partition.Nat{} (cheap, and inner circuits are small).
	SecondLevel partition.Strategy
	// Workers bounds kernel and sweep parallelism (0 = GOMAXPROCS).
	Workers int
	// Fuse enables gate fusion within each part (and each second-level
	// sub-part).
	Fuse bool
	// MaxFuseQubits caps fused-block support (0 = fuse default).
	MaxFuseQubits int
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// PartStats records the execution footprint of one part.
type PartStats struct {
	Index      int
	Gates      int
	Qubits     int
	Sweeps     int64 // gather/scatter iterations = 2^(n-w)
	BytesMoved int64 // gather + scatter traffic over the outer vector
	SubParts   int   // second-level part count (1 when single-level)
	Blocks     int   // program blocks per sweep: one per gate unfused, 0 when multi-level
}

// Metrics aggregates execution statistics.
type Metrics struct {
	Parts      int
	BytesMoved int64
	Sweeps     int64
	InnerOps   int64
	PerPart    []PartStats
}

// ExecutePlan runs every part of the plan against the given outer state.
// The state must span the plan's circuit.
func ExecutePlan(pl *partition.Plan, outer *sv.State, opts Options) (*Metrics, error) {
	if pl.Circuit.NumQubits > outer.N {
		return nil, fmt.Errorf("hier: circuit needs %d qubits, state has %d", pl.Circuit.NumQubits, outer.N)
	}
	m := &Metrics{Parts: pl.NumParts()}
	for _, part := range pl.Parts {
		if opts.Ctx != nil {
			if err := opts.Ctx.Err(); err != nil {
				return nil, err
			}
		}
		pp, err := preparePart(pl.Circuit, part, opts)
		if err != nil {
			return nil, fmt.Errorf("hier: part %d: %w", part.Index, err)
		}
		ps, err := executePart(&pp, outer, opts)
		if err != nil {
			return nil, fmt.Errorf("hier: part %d: %w", part.Index, err)
		}
		m.PerPart = append(m.PerPart, ps)
		m.BytesMoved += ps.BytesMoved
		m.Sweeps += ps.Sweeps
	}
	m.InnerOps = outer.Ops
	return m, nil
}

// Run partitions the circuit with the strategy and executes it from |0…0⟩.
func Run(c *circuit.Circuit, lm int, s partition.Strategy, opts Options) (*sv.State, *Metrics, error) {
	pl, err := s.Partition(dag.FromCircuit(c), lm)
	if err != nil {
		return nil, nil, err
	}
	outer := sv.NewState(c.NumQubits)
	outer.Workers = opts.Workers
	outer.Prof = prof.FromContext(opts.Ctx)
	m, err := ExecutePlan(pl, outer, opts)
	if err != nil {
		return nil, nil, err
	}
	return outer, m, nil
}

// Prepared is one compiled execution recipe: a part's gather/scatter table
// plus either one compiled gate program (internal/fuse) or the prepared
// second-level sub-parts. Preparing once per part keeps fusion and
// second-level partitioning out of the 2^(n-w) sweep loop; a Prepared is
// read-only and shared across sweeps, goroutines and simulated ranks.
type Prepared struct {
	part partition.Part
	offs []int         // offs[s] = spread(s, part.Qubits), gather/scatter table
	prog *fuse.Program // compiled gate run (nil when multi-level)
	sub  []Prepared    // second-level prepared parts
}

// preparePart remaps the part's gates onto inner slots and prepares them.
func preparePart(c *circuit.Circuit, part partition.Part, opts Options) (Prepared, error) {
	w := part.WorkingSetSize()
	// Remap the part's gates onto inner qubit slots 0..w-1 (the paper's
	// consistent-layout rule: ascending global qubit -> ascending slot).
	slot := make(map[int]int, w)
	for j, q := range part.Qubits {
		slot[q] = j
	}
	gates := make([]gate.Gate, 0, len(part.GateIndices))
	for _, gi := range part.GateIndices {
		gates = append(gates, c.Gates[gi].Remap(func(q int) int { return slot[q] }))
	}
	pp, err := Prepare(fmt.Sprintf("%s_part%d", c.Name, part.Index), gates, w, opts)
	if err != nil {
		return Prepared{}, err
	}
	pp.part = part
	if w < c.NumQubits {
		// Parts that span their whole circuit never gather/scatter (they
		// apply directly), so the offset table would be pure waste there.
		pp.offs = make([]int, 1<<uint(w))
		for s := range pp.offs {
			pp.offs[s] = spread(s, part.Qubits)
		}
	}
	return *pp, nil
}

// Prepare compiles a gate run over w qubits (slots 0..w-1): into prepared
// second-level sub-parts when opts.SecondLevelLm is set and below w, else
// into one program (fused per opts.Fuse). name labels the second-level
// sub-circuit.
func Prepare(name string, gates []gate.Gate, w int, opts Options) (*Prepared, error) {
	if opts.SecondLevelLm <= 0 || opts.SecondLevelLm >= w {
		prog, err := fuse.Compile(gates, w, opts.Fuse, fuse.Options{MaxQubits: opts.MaxFuseQubits})
		if err != nil {
			return nil, err
		}
		return &Prepared{prog: prog}, nil
	}
	sub := circuit.New(name, w)
	sub.Gates = gates
	strat := opts.SecondLevel
	if strat == nil {
		strat = partition.Nat{}
	}
	pl2, err := strat.Partition(dag.FromCircuit(sub), opts.SecondLevelLm)
	if err != nil {
		return nil, fmt.Errorf("second-level partition: %w", err)
	}
	subOpts := opts
	subOpts.SecondLevelLm = 0
	pp := &Prepared{}
	for _, p2 := range pl2.Parts {
		sp, err := preparePart(sub, p2, subOpts)
		if err != nil {
			return nil, err
		}
		pp.sub = append(pp.sub, sp)
	}
	return pp, nil
}

// Apply runs the prepared compute against a state whose qubits are the
// recipe's slots. workers bounds second-level sweep parallelism (0 =
// GOMAXPROCS): 1 inside a per-sweep inner vector (parallelism is already
// sweep-level there), the full worker count on an outer state or slab.
func (pp *Prepared) Apply(inner *sv.State, workers int) error {
	if pp.prog != nil {
		return pp.prog.Apply(inner)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	for i := range pp.sub {
		if err := executeSweeps(&pp.sub[i], inner, workers); err != nil {
			return err
		}
	}
	return nil
}

// executePart performs the Gather-Execute-Scatter cycle of Algorithm 1 for
// one prepared part.
func executePart(pp *Prepared, outer *sv.State, opts Options) (PartStats, error) {
	part := pp.part
	w := part.WorkingSetSize()
	n := outer.N
	ps := PartStats{Index: part.Index, Gates: len(part.GateIndices), Qubits: w, SubParts: 1}
	if pp.prog != nil {
		ps.Blocks = len(pp.prog.Blocks)
	} else {
		ps.SubParts = len(pp.sub)
	}
	if w == 0 {
		return ps, nil
	}
	ps.Sweeps = int64(1) << uint(n-w)

	if w == n {
		// The part spans the whole register: apply directly to the outer
		// state through the parallel kernels — no gather/scatter copies, so
		// no bytes are charged.
		if err := pp.Apply(outer, opts.workers()); err != nil {
			return ps, err
		}
		return ps, nil
	}
	ps.BytesMoved = 2 * int64(outer.Dim()) * 16
	if err := executeSweeps(pp, outer, opts.workers()); err != nil {
		return ps, err
	}
	return ps, nil
}

// executeSweeps runs the 2^(n-w) gather/execute/scatter iterations of one
// prepared part against the outer state, splitting independent sweeps
// (disjoint outer slices) across workers goroutines.
func executeSweeps(pp *Prepared, outer *sv.State, workers int) error {
	part := pp.part
	w := part.WorkingSetSize()
	sweeps := 1 << uint(outer.N-w)
	offs := pp.offs
	if offs == nil { // defensive: preparePart builds it for every swept part
		offs = make([]int, 1<<uint(w))
		for s := range offs {
			offs[s] = spread(s, part.Qubits)
		}
	}

	runRange := func(lo, hi int) (int64, error) {
		inner := sv.NewState(w)
		inner.Workers = 1 // inner vectors are small; parallelism is sweep-level
		inner.Prof = outer.Prof
		dimInner := inner.Dim()
		for f := lo; f < hi; f++ {
			base := f
			for _, q := range part.Qubits { // ascending: insert zeros at part qubits
				base = insertBit(base, q)
			}
			for s := 0; s < dimInner; s++ {
				inner.Amps[s] = outer.Amps[base|offs[s]]
			}
			if err := pp.Apply(inner, 1); err != nil {
				return inner.Ops, err
			}
			for s := 0; s < dimInner; s++ {
				outer.Amps[base|offs[s]] = inner.Amps[s]
			}
		}
		return inner.Ops, nil
	}

	if workers <= 1 || sweeps < 2*workers {
		ops, err := runRange(0, sweeps)
		outer.Ops += ops
		return err
	}
	if workers > sweeps {
		workers = sweeps
	}
	chunk := (sweeps + workers - 1) / workers
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for lo := 0; lo < sweeps; lo += chunk {
		hi := lo + chunk
		if hi > sweeps {
			hi = sweeps
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			ops, err := runRange(lo, hi)
			mu.Lock()
			outer.Ops += ops
			if err != nil && firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}(lo, hi)
	}
	wg.Wait()
	return firstErr
}

// insertBit returns f with a zero bit inserted at position p.
func insertBit(f, p int) int {
	low := f & ((1 << uint(p)) - 1)
	return ((f &^ ((1 << uint(p)) - 1)) << 1) | low
}

// spread distributes the bits of s onto the (ascending) qubit positions.
func spread(s int, qubits []int) int {
	out := 0
	for j, q := range qubits {
		if s>>uint(j)&1 == 1 {
			out |= 1 << uint(q)
		}
	}
	return out
}

// Gather extracts the 2^w inner amplitudes for a given free-bit assignment;
// exported for reuse by the distributed executor and tests.
func Gather(outer []complex128, qubits []int, base int, inner []complex128) {
	for s := range inner {
		inner[s] = outer[base|spread(s, qubits)]
	}
}

// Scatter writes inner amplitudes back to their outer positions.
func Scatter(outer []complex128, qubits []int, base int, inner []complex128) {
	for s := range inner {
		outer[base|spread(s, qubits)] = inner[s]
	}
}
