package noise

import (
	"fmt"
	"math"
	"math/rand"

	"hisvsim/internal/circuit"
	"hisvsim/internal/fuse"
	"hisvsim/internal/gate"
	"hisvsim/internal/prof"
	"hisvsim/internal/sv"
)

// CompileOptions configures trajectory-plan compilation.
type CompileOptions struct {
	// Fuse coalesces maximal noise-free gate runs into fused blocks
	// (internal/fuse); channel insertions bound the runs, so a model that
	// only decorates e.g. cx gates still fuses the single-qubit stretches
	// between them. Default off; executors pass their own policy.
	Fuse bool
	// MaxFuseQubits caps fused-block support (0 = fuse defaults).
	MaxFuseQubits int
	// ForceKraus disables the Pauli fast path: every channel runs through
	// exact norm-weighted Kraus selection. The two unravelings agree in
	// distribution; this knob exists for differential tests and the
	// fast-path benchmark.
	ForceKraus bool
}

// step is one unit of a compiled trajectory plan: either a compiled gate
// run (prog non-nil) or a single channel insertion (ch non-nil).
type step struct {
	prog *fuse.Program

	ch     *Channel
	qubits []int // the channel's target qubits (len = ch.NumQubits())
}

// Plan is a compiled noisy circuit: the gate sequence pre-fused between
// channel-insertion points, ready to be replayed across many trajectories.
// A Plan is immutable after Compile and safe for concurrent RunTrajectory
// calls (the executors share the fused kernels and matrices read-only).
type Plan struct {
	n          int
	steps      []step
	locations  int // channel-insertion count per trajectory
	blocks     int // fused blocks per trajectory
	gateCount  int
	readout    *Readout
	forceKraus bool
}

// NumQubits returns the register width the plan executes on.
func (p *Plan) NumQubits() int { return p.n }

// Locations returns the channel insertions per trajectory.
func (p *Plan) Locations() int { return p.locations }

// Blocks returns the fused execution blocks per trajectory.
func (p *Plan) Blocks() int { return p.blocks }

// NoiseFree reports whether the plan has no channel insertions at all —
// every trajectory would produce the ideal state, so callers should run the
// ideal executors once instead (core.SimulateNoisy does exactly that,
// keeping zero-noise runs bit-for-bit identical to ideal simulation).
func (p *Plan) NoiseFree() bool { return p.locations == 0 }

// Readout returns the effective readout error (nil when absent).
func (p *Plan) Readout() *Readout { return p.readout }

// MemoryBytes estimates the plan's resident size (fused matrices, diagonal
// and index tables, Kraus operators) for cache budgeting.
func (p *Plan) MemoryBytes() int64 {
	var b int64 = 256
	for _, st := range p.steps {
		if st.prog != nil {
			b += st.prog.MemoryBytes()
		}
		if st.ch != nil {
			for _, k := range st.ch.Kraus {
				b += int64(len(k.Data)) * 16
			}
		}
	}
	return b
}

// Compile lowers a circuit plus noise model into a trajectory plan: walk the
// gates in order, collect the channel insertions each gate triggers, and
// fuse every maximal insertion-free gate run into dense/diagonal blocks.
// Zero-probability channels are elided, so a structurally noisy model with
// p = 0 compiles to exactly the ideal plan.
func Compile(c *circuit.Circuit, m *Model, opts CompileOptions) (*Plan, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := m.Validate(c.NumQubits); err != nil {
		return nil, err
	}
	p := &Plan{n: c.NumQubits, gateCount: c.NumGates(), forceKraus: opts.ForceKraus}
	if m != nil {
		p.readout = m.effectiveReadout()
	}

	var run []gate.Gate
	flush := func() error {
		if len(run) == 0 {
			return nil
		}
		prog, err := fuse.Compile(run, c.NumQubits, opts.Fuse, fuse.Options{MaxQubits: opts.MaxFuseQubits})
		if err != nil {
			return err
		}
		p.steps = append(p.steps, step{prog: prog})
		p.blocks += len(prog.Blocks)
		run = nil
		return nil
	}

	for gi, g := range c.Gates {
		run = append(run, g)
		insertions, err := insertionsFor(m, g)
		if err != nil {
			return nil, fmt.Errorf("noise: gate %d (%s): %w", gi, g.Name, err)
		}
		if len(insertions) == 0 {
			continue
		}
		if err := flush(); err != nil {
			return nil, err
		}
		p.steps = append(p.steps, insertions...)
		p.locations += len(insertions)
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return p, nil
}

// insertionsFor returns the channel-insertion steps gate g triggers under
// the model, in rule order then ascending qubit order. Single-qubit
// channels insert once per matched touched qubit; a k-qubit channel inserts
// once over the gate's k touched qubits (every one matching the rule's
// qubit set) and errors on an arity mismatch — a correlated channel scoped
// to the wrong gate class must fail at compile time, not silently thin out
// the noise model.
func insertionsFor(m *Model, g gate.Gate) ([]step, error) {
	if m == nil {
		return nil, nil
	}
	var out []step
	for ri := range m.Rules {
		r := &m.Rules[ri]
		if r.Channel.IsZero() || !r.matchesGate(g.Name) {
			continue
		}
		qs := g.SortedQubits()
		if k := r.Channel.NumQubits(); k > 1 {
			if len(qs) != k {
				return nil, fmt.Errorf("%d-qubit channel %s matched a %d-qubit gate (restrict the rule's Gates to %d-qubit classes)",
					k, r.Channel.Name, len(qs), k)
			}
			all := true
			for _, q := range qs {
				if !r.matchesQubit(q) {
					all = false
					break
				}
			}
			if all {
				out = append(out, step{ch: &r.Channel, qubits: qs})
			}
			continue
		}
		for _, q := range qs {
			if r.matchesQubit(q) {
				out = append(out, step{ch: &r.Channel, qubits: []int{q}})
			}
		}
	}
	return out, nil
}

// Step is the exported read-only view of one compiled plan unit, for
// alternative evolution engines that replay a plan without unraveling it
// stochastically (the density-matrix backend walks these and applies
// Channel.Kraus exactly as a superoperator). Exactly one of Program or the
// channel pair (Channel + Qubits) is set.
type Step struct {
	// Program is a compiled gate run (one Single block per gate when the
	// plan was compiled with Fuse off).
	Program *fuse.Program
	// Channel is a channel insertion over Qubits (len = channel arity,
	// ascending).
	Channel *Channel
	Qubits  []int
}

// VisitSteps walks the plan's steps in execution order, stopping at the
// first error. The callback must treat the step's slices as read-only: they
// alias the immutable plan shared across trajectories.
func (p *Plan) VisitSteps(f func(Step) error) error {
	for i := range p.steps {
		s := &p.steps[i]
		if err := f(Step{Program: s.prog, Channel: s.ch, Qubits: s.qubits}); err != nil {
			return err
		}
	}
	return nil
}

// TrajStats counts the stochastic work of one (or many, summed) trajectories.
type TrajStats struct {
	// Locations is the number of channel draws.
	Locations int64
	// PauliApplied counts non-identity Pauli injections (fast path).
	PauliApplied int64
	// KrausApplied counts norm-weighted Kraus applications (general path).
	KrausApplied int64
}

func (a *TrajStats) add(b TrajStats) {
	a.Locations += b.Locations
	a.PauliApplied += b.PauliApplied
	a.KrausApplied += b.KrausApplied
}

// RunTrajectory executes one stochastic trajectory from |0…0⟩: gate blocks
// replay the fused plan, channel steps draw one branch each from rng.
// Exactly one rng draw is consumed per channel location (plus the draws the
// sampling layer makes afterwards), so a trajectory's randomness is fully
// determined by its RNG seed.
func (p *Plan) RunTrajectory(rng *rand.Rand) (*sv.State, TrajStats, error) {
	return p.runTrajectory(rng, nil)
}

// runTrajectory is RunTrajectory with an optional kernel recorder attached
// to the trajectory state (the ensemble runner threads the job's recorder
// through here; kernel times from concurrent trajectories sum, so they can
// exceed the stage's wall time when trajectory workers > 1).
func (p *Plan) runTrajectory(rng *rand.Rand, rec *prof.Recorder) (*sv.State, TrajStats, error) {
	st := sv.NewState(p.n)
	st.Workers = 1 // parallelism is trajectory-level (RunEnsemble)
	st.Prof = rec
	var stats TrajStats
	for i := range p.steps {
		s := &p.steps[i]
		switch {
		case s.ch != nil:
			stats.Locations++
			if err := p.applyChannel(st, s.ch, s.qubits, rng, &stats); err != nil {
				return nil, stats, err
			}
		default:
			if err := s.prog.Apply(st); err != nil {
				return nil, stats, err
			}
		}
	}
	return st, stats, nil
}

// applyPauliK applies the k-factor Pauli product idx (gate.PauliMatrixK
// numbering: factor j on qubits[j]) through the single-qubit kernel — a
// product of Paulis never needs the dense 2^k kernel.
func applyPauliK(st *sv.State, qubits []int, idx int) {
	for j, q := range qubits {
		if p := (idx >> uint(2*j)) & 3; p != gate.PauliI {
			st.ApplyMatrix1(q, gate.PauliMatrix(p))
		}
	}
}

// applyChannel draws one branch of the channel and applies it to the listed
// qubits (len = channel arity).
func (p *Plan) applyChannel(st *sv.State, ch *Channel, qubits []int, rng *rand.Rand, stats *TrajStats) error {
	u := rng.Float64()
	if ch.Pauli != nil && !p.forceKraus {
		// Pauli fast path: fixed probabilities, unitary insertions, no
		// renormalization. The identity branch applies nothing.
		acc := 0.0
		for i, prob := range ch.Pauli {
			acc += prob
			if u < acc || i == len(ch.Pauli)-1 {
				if i != 0 {
					stats.PauliApplied++
					applyPauliK(st, qubits, i)
				}
				return nil
			}
		}
		return nil
	}
	// Exact norm-weighted selection: p_i = ‖K_i ψ‖². The last operator is
	// selected by elimination (probabilities sum to 1), but its norm is
	// still measured for the exact renormalization factor.
	last := len(ch.Kraus) - 1
	chosen := last
	var pc float64
	acc := 0.0
	for i := 0; i < last; i++ {
		pi := st.KrausKNorm2(qubits, ch.Kraus[i])
		if u < acc+pi {
			chosen, pc = i, pi
			break
		}
		acc += pi
	}
	if chosen == last {
		pc = st.KrausKNorm2(qubits, ch.Kraus[last])
	}
	if pc <= 0 {
		// A zero-probability branch can only be reached through floating-
		// point rounding of the accumulated probabilities; applying it would
		// annihilate the state. Fall back to the likeliest branch.
		for i, k := range ch.Kraus {
			if pi := st.KrausKNorm2(qubits, k); pi > pc {
				chosen, pc = i, pi
			}
		}
		if pc <= 0 {
			return fmt.Errorf("noise: channel %s on qubits %v has no positive-probability branch", ch.Name, qubits)
		}
	}
	stats.KrausApplied++
	st.ApplyMatrixK(qubits, ch.Kraus[chosen])
	st.Scale(complex(1/math.Sqrt(pc), 0))
	return nil
}
