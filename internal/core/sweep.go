package core

import (
	"context"
	"fmt"
	"time"

	"hisvsim/internal/circuit"
	"hisvsim/internal/noise"
	"hisvsim/internal/sv"
)

// This file is the v3 sweep surface: evaluate one parameterized circuit
// template over many symbol bindings with a single compile. Every template,
// ideal or noisy, compiles to one noise.Plan (without channels it is a
// single gate-run step holding the fused program). Each grid point only
// re-binds the symbol-touched blocks and replays the shared kernel plans,
// so M bindings cost 1 compile + M cheap specializations instead of M full
// compiles. EvaluateBinding is the one per-binding evaluator: Sweep,
// Optimize and the service's sweep and bound-run jobs all go through it.

// SweepPoint is one evaluated grid point.
type SweepPoint struct {
	// Binding is the symbol environment the point was evaluated under.
	Binding map[string]float64
	// Readouts are the point's evaluated read-outs (same spec every point).
	Readouts *Readouts
}

// SweepReport is the result of a sweep: per-point read-outs plus the
// compile-amortization accounting the stats surface exposes.
type SweepReport struct {
	// Points holds one entry per requested binding, in request order.
	Points []SweepPoint
	// Compiles is the number of plan compiles this sweep caused: 1 for
	// Sweep, and 0 for a service sweep whose plan was already cached.
	Compiles int
	// TouchedBlocks is how many fused blocks each binding re-specializes;
	// SharedBlocks is how many are reused read-only across all bindings.
	TouchedBlocks int
	SharedBlocks  int
	// Trajectories is the per-point ensemble size (0 when the plan has no
	// channels to unravel).
	Trajectories int
	// Elapsed is the wall time of the whole sweep, compile included.
	Elapsed time.Duration
}

// validateSweep checks the request shape shared by Sweep and Optimize:
// a parameterized circuit, a backend the template engine can honor, and
// well-formed bindings. Errors name the offending symbol or point.
func validateSweep(c *circuit.Circuit, opts Options, bindings []map[string]float64) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if opts.Backend != "" && opts.Backend != "flat" {
		return fmt.Errorf("core: parameterized jobs run on the flat template engine (got backend %q)", opts.Backend)
	}
	if opts.Ranks > 1 {
		return fmt.Errorf("core: parameterized jobs run single-node (got %d ranks)", opts.Ranks)
	}
	for i, env := range bindings {
		if err := c.CheckBinding(env); err != nil {
			return fmt.Errorf("binding %d: %w", i, err)
		}
	}
	return nil
}

// compilePlan compiles the circuit under opts.Noise into the trajectory
// plan every noisy and template path replays, honoring the fusion options.
func compilePlan(c *circuit.Circuit, opts Options) (*noise.Plan, error) {
	return noise.Compile(c, opts.Noise, noise.CompileOptions{Fuse: !opts.NoFuse, MaxFuseQubits: opts.MaxFuseQubits})
}

// Sweep evaluates the template under every binding. See SweepContext.
func Sweep(c *circuit.Circuit, opts Options, spec ReadoutSpec, bindings []map[string]float64) (*SweepReport, error) {
	return SweepContext(context.Background(), c, opts, spec, bindings)
}

// SweepContext compiles the parameterized circuit plus opts.Noise once and
// evaluates the ReadoutSpec under every binding, in order (see
// EvaluateBinding for the per-point routing). The spec's Seed is reused at
// every point, so each point's read-outs are bit-identical to an
// independent concrete-circuit run of the bound circuit. NoFuse and
// MaxFuseQubits shape the compiled template exactly as they shape a
// concrete run.
func SweepContext(ctx context.Context, c *circuit.Circuit, opts Options, spec ReadoutSpec, bindings []map[string]float64) (*SweepReport, error) {
	start := time.Now()
	if len(bindings) == 0 {
		return nil, fmt.Errorf("core: sweep needs at least one binding")
	}
	if err := validateSweep(c, opts, bindings); err != nil {
		return nil, err
	}
	if err := spec.Validate(c.NumQubits); err != nil {
		return nil, err
	}
	effective := !opts.Noise.IsZero()
	if effective && spec.Statevector {
		return nil, fmt.Errorf("core: statevector readout is undefined under an effective noise model (a trajectory ensemble has no single state)")
	}
	plan, err := compilePlan(c, opts)
	if err != nil {
		return nil, err
	}
	rep, err := SweepPlan(ctx, plan, spec, bindings, opts.Workers, effective)
	if err != nil {
		return nil, err
	}
	rep.Compiles = 1
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// SweepPlan evaluates every binding against one compiled template plan,
// in order, and fills the report's points and block ledger. Compiles and
// Elapsed are left to the caller, which owns the compile.
func SweepPlan(ctx context.Context, plan *noise.Plan, spec ReadoutSpec, bindings []map[string]float64, workers int, effective bool) (*SweepReport, error) {
	touched := plan.TouchedBlocks()
	rep := &SweepReport{
		Points:        make([]SweepPoint, 0, len(bindings)),
		TouchedBlocks: touched, SharedBlocks: plan.Blocks() - touched,
	}
	for i, env := range bindings {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ro, err := EvaluateBinding(ctx, plan, env, spec, workers, effective)
		if err != nil {
			return nil, fmt.Errorf("core: binding %d: %w", i, err)
		}
		rep.Trajectories = ro.Trajectories
		rep.Points = append(rep.Points, SweepPoint{Binding: cloneEnv(env), Readouts: ro})
	}
	return rep, nil
}

// EvaluateBinding evaluates the spec for one binding of a compiled
// template plan. effective reports whether the plan's noise model was
// non-zero; the routing is:
//
//   - the plan has channels: specialize it and run a seeded trajectory
//     ensemble;
//   - the model is zero: replay the bound gates once and read the ideal
//     state;
//   - otherwise (readout error only, or rules that match no gate): replay
//     once and sample the shared state through the readout-error ensemble,
//     the same fast path SimulateNoisy takes for concrete circuits.
//
// workers bounds the replay's kernel parallelism and the ensemble width.
// The plan is never mutated, so one template serves concurrent callers.
func EvaluateBinding(ctx context.Context, plan *noise.Plan, env map[string]float64, spec ReadoutSpec, workers int, effective bool) (*Readouts, error) {
	cfg := spec.NoisyRunConfig(workers)
	if !plan.NoiseFree() {
		sp, err := plan.Specialize(env)
		if err != nil {
			return nil, err
		}
		ens, err := noise.RunEnsemble(ctx, sp, cfg)
		if err != nil {
			return nil, err
		}
		return ReadoutsFromEnsemble(ens, spec), nil
	}
	st, err := BindState(plan, env, workers)
	if err != nil {
		return nil, err
	}
	if !effective {
		return EvaluateState(st, nil, spec), nil
	}
	ens, err := noise.RunEnsembleFromState(ctx, st, plan.Readout(), cfg)
	if err != nil {
		return nil, err
	}
	return ReadoutsFromEnsemble(ens, spec), nil
}

// BindState specializes a channel-free template plan for env and replays
// it onto a fresh |0…0⟩ state with the given worker bound (0 keeps the
// state's default), returning the bound circuit's final state.
func BindState(plan *noise.Plan, env map[string]float64, workers int) (*sv.State, error) {
	sp, err := plan.Specialize(env)
	if err != nil {
		return nil, err
	}
	st := sv.NewState(plan.NumQubits())
	if workers > 0 {
		st.Workers = workers
	}
	err = sp.VisitSteps(func(s noise.Step) error {
		if s.Program == nil {
			return fmt.Errorf("core: plan has a %s channel step; run it as an ensemble", s.Channel.Name)
		}
		return s.Program.Apply(st)
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

func cloneEnv(env map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(env))
	for k, v := range env {
		out[k] = v
	}
	return out
}
