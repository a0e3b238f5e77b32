package core

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"hisvsim/internal/backend"
	"hisvsim/internal/circuit"
	"hisvsim/internal/noise"
)

// qaoaEnvs returns deterministic bindings for every symbol of c.
func qaoaEnvs(c *circuit.Circuit, k int) []map[string]float64 {
	syms := c.Symbols()
	envs := make([]map[string]float64, k)
	for i := range envs {
		env := make(map[string]float64, len(syms))
		for j, s := range syms {
			env[s] = 0.3*float64(i+1) + 0.17*float64(j) - 0.9
		}
		envs[i] = env
	}
	return envs
}

// TestTemplateMatchesConcreteAcrossBackends is the differential acceptance
// gate: a template compiled ONCE and evaluated per binding must agree
// with one-off concrete simulations of the bound circuit on every
// registered state-vector backend to 1e-9.
func TestTemplateMatchesConcreteAcrossBackends(t *testing.T) {
	c := circuit.QAOAAnsatz(4, 2)
	tpl, err := noise.Compile(c, nil, noise.CompileOptions{Fuse: true})
	if err != nil {
		t.Fatal(err)
	}
	if tpl.TouchedBlocks() == 0 {
		t.Fatal("template reports no symbol-touched blocks")
	}
	for _, env := range qaoaEnvs(c, 3) {
		ro, err := EvaluateBinding(context.Background(), tpl, env, ReadoutSpec{Statevector: true}, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		amps := ro.Amplitudes
		bound, err := c.Bind(env)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range backend.Names() {
			b, err := backend.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			caps := b.Capabilities()
			if caps.Noise == backend.NoiseExact {
				continue // ρ engine: no amplitude vector to compare
			}
			ranks := 0
			if !caps.SingleRank {
				ranks = 4
			}
			res, err := Simulate(bound, Options{Backend: name, Ranks: ranks})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i := range amps {
				if d := cmplxAbs(amps[i] - res.State.Amps[i]); d > 1e-9 {
					t.Fatalf("%s env %v amp %d: template %v vs concrete %v (|Δ|=%g)",
						name, env, i, amps[i], res.State.Amps[i], d)
				}
			}
		}
	}
}

func cmplxAbs(z complex128) float64 {
	return math.Hypot(real(z), imag(z))
}

// TestSweepMatchesConcreteRuns: every sweep point's read-outs must be
// bit-identical to an independent Evaluate of the bound circuit under the
// same spec (the sweep reuses the spec seed per point).
func TestSweepMatchesConcreteRuns(t *testing.T) {
	c := circuit.QAOAAnsatz(4, 1)
	spec := ReadoutSpec{
		Shots: 200, Seed: 11,
		Marginals: [][]int{{0, 1}},
		Observables: []Observable{
			{Name: "zz01", Coeff: -1, Paulis: "ZZ", Qubits: []int{0, 1}},
			{Name: "x2", Paulis: "X", Qubits: []int{2}},
		},
	}
	bindings := qaoaEnvs(c, 5)
	rep, err := Sweep(c, Options{}, spec, bindings)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Compiles != 1 {
		t.Fatalf("compiles = %d, want 1", rep.Compiles)
	}
	if len(rep.Points) != len(bindings) {
		t.Fatalf("points = %d, want %d", len(rep.Points), len(bindings))
	}
	for i, p := range rep.Points {
		bound, err := c.Bind(bindings[i])
		if err != nil {
			t.Fatal(err)
		}
		want, err := Evaluate(bound, Options{Backend: "flat"}, spec)
		if err != nil {
			t.Fatal(err)
		}
		for k, ov := range p.Readouts.Observables {
			if math.Abs(ov.Value-want.Observables[k].Value) > 1e-9 {
				t.Fatalf("point %d obs %s: %v vs %v", i, ov.Name, ov.Value, want.Observables[k].Value)
			}
		}
		for k := range p.Readouts.Samples {
			if p.Readouts.Samples[k] != want.Samples[k] {
				t.Fatalf("point %d sample %d differs: %d vs %d", i, k, p.Readouts.Samples[k], want.Samples[k])
			}
		}
		for k := range p.Readouts.Marginals[0] {
			if math.Abs(p.Readouts.Marginals[0][k]-want.Marginals[0][k]) > 1e-9 {
				t.Fatalf("point %d marginal %d differs", i, k)
			}
		}
	}
}

// TestSweepUnfusedMatchesFlatBitForBit: a NoFuse sweep compiles one
// passthrough block per gate, so every point must equal a flat-backend
// evaluation of the bound circuit exactly (==), not merely within 1e-9.
func TestSweepUnfusedMatchesFlatBitForBit(t *testing.T) {
	c := circuit.QAOAAnsatz(4, 2)
	spec := ReadoutSpec{
		Statevector: true, Shots: 100, Seed: 7,
		Observables: []Observable{{Paulis: "ZZ", Qubits: []int{0, 1}}, {Paulis: "X", Qubits: []int{3}}},
	}
	bindings := qaoaEnvs(c, 3)
	rep, err := Sweep(c, Options{NoFuse: true}, spec, bindings)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TouchedBlocks+rep.SharedBlocks != c.NumGates() {
		t.Fatalf("unfused template has %d blocks for %d gates", rep.TouchedBlocks+rep.SharedBlocks, c.NumGates())
	}
	for i, p := range rep.Points {
		bound, err := c.Bind(bindings[i])
		if err != nil {
			t.Fatal(err)
		}
		want, err := Evaluate(bound, Options{Backend: "flat"}, spec)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want.Amplitudes {
			if p.Readouts.Amplitudes[k] != want.Amplitudes[k] {
				t.Fatalf("point %d amplitude %d: %v vs flat %v", i, k, p.Readouts.Amplitudes[k], want.Amplitudes[k])
			}
		}
		for k, ov := range p.Readouts.Observables {
			if ov.Value != want.Observables[k].Value {
				t.Fatalf("point %d observable %d: %v vs flat %v", i, k, ov.Value, want.Observables[k].Value)
			}
		}
		for k := range want.Samples {
			if p.Readouts.Samples[k] != want.Samples[k] {
				t.Fatalf("point %d sample %d: %d vs flat %d", i, k, p.Readouts.Samples[k], want.Samples[k])
			}
		}
	}
}

// TestSweepNoisyMatchesConcrete: trajectory-noise sweeps re-bind one
// compiled plan; each point must match an independent noisy evaluation of
// the bound circuit (same seed → identical trajectories).
func TestSweepNoisyMatchesConcrete(t *testing.T) {
	c := circuit.QAOAAnsatz(3, 1)
	m := (&noise.Model{}).AddRule(noise.Rule{Channel: noise.Depolarizing(0.05)})
	spec := ReadoutSpec{
		Shots: 100, Seed: 5, Trajectories: 64,
		Observables: []Observable{{Paulis: "ZZ", Qubits: []int{0, 1}}},
	}
	bindings := qaoaEnvs(c, 3)
	rep, err := Sweep(c, Options{Noise: m, Workers: 1}, spec, bindings)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trajectories != 64 {
		t.Fatalf("trajectories = %d", rep.Trajectories)
	}
	for i, p := range rep.Points {
		bound, err := c.Bind(bindings[i])
		if err != nil {
			t.Fatal(err)
		}
		want, err := Evaluate(bound, Options{Noise: m, Workers: 1}, spec)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p.Readouts.Observables[0].Value-want.Observables[0].Value) > 1e-9 {
			t.Fatalf("point %d noisy ⟨ZZ⟩: %v vs %v", i, p.Readouts.Observables[0].Value, want.Observables[0].Value)
		}
		for b, n := range want.Counts {
			if p.Readouts.Counts[b] != n {
				t.Fatalf("point %d counts differ at basis %d", i, b)
			}
		}
	}
}

// TestSweepValidation: binding mistakes fail naming the symbol, and
// template jobs reject non-flat backends.
func TestSweepValidation(t *testing.T) {
	c := circuit.QAOAAnsatz(3, 1)
	spec := ReadoutSpec{Observables: []Observable{{Paulis: "Z", Qubits: []int{0}}}}
	good := qaoaEnvs(c, 1)[0]

	if _, err := Sweep(c, Options{}, spec, nil); err == nil {
		t.Fatal("empty binding list accepted")
	}
	missing := map[string]float64{"gamma0": 0.1}
	if _, err := Sweep(c, Options{}, spec, []map[string]float64{missing}); err == nil || !contains(err.Error(), "beta0") {
		t.Fatalf("unbound symbol not named: %v", err)
	}
	unknown := map[string]float64{"gamma0": 1, "beta0": 1, "delta": 2}
	if _, err := Sweep(c, Options{}, spec, []map[string]float64{unknown}); err == nil || !contains(err.Error(), "delta") {
		t.Fatalf("unknown symbol not named: %v", err)
	}
	nan := map[string]float64{"gamma0": math.NaN(), "beta0": 1}
	if _, err := Sweep(c, Options{}, spec, []map[string]float64{nan}); err == nil || !contains(err.Error(), "gamma0") {
		t.Fatalf("non-finite value not named: %v", err)
	}
	if _, err := Sweep(c, Options{Backend: "hier"}, spec, []map[string]float64{good}); err == nil {
		t.Fatal("non-flat backend accepted for a sweep")
	}
}

// TestOptimizeFindsIsingGroundDirection: a 1-layer QAOA loop on a tiny
// ZZ objective must strictly improve on the zero start, with exactly one
// compile and a populated trace.
func TestOptimizeFindsIsingGroundDirection(t *testing.T) {
	c := circuit.QAOAAnsatz(4, 1)
	spec := OptimizeSpec{
		Observables: []Observable{
			{Coeff: 1, Paulis: "ZZ", Qubits: []int{0, 1}},
			{Coeff: 1, Paulis: "ZZ", Qubits: []int{1, 2}},
			{Coeff: 1, Paulis: "ZZ", Qubits: []int{2, 3}},
		},
		Method: MethodSPSA, MaxIters: 40, Seed: 3, A: 0.4, C: 0.15,
	}
	rep, err := Optimize(c, Options{}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Compiles != 1 {
		t.Fatalf("compiles = %d, want 1", rep.Compiles)
	}
	if len(rep.Trace) == 0 || rep.Evaluations < 3*len(rep.Trace) {
		t.Fatalf("trace %d entries, %d evaluations", len(rep.Trace), rep.Evaluations)
	}
	// |++++⟩ has ⟨ZZ⟩ = 0 on every bond; any useful step goes below it.
	if rep.BestValue >= 0 {
		t.Fatalf("best value %v, want < 0 (start is 0)", rep.BestValue)
	}
	if err := c.CheckBinding(rep.Best); err != nil {
		t.Fatalf("best binding incomplete: %v", err)
	}

	nm := spec
	nm.Method = MethodNelderMead
	nmRep, err := Optimize(c, Options{}, nm)
	if err != nil {
		t.Fatal(err)
	}
	if nmRep.BestValue >= 0 {
		t.Fatalf("nelder-mead best %v, want < 0", nmRep.BestValue)
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }

// TestSweepLedgerEveryModel: whatever route a binding takes — ideal,
// readout error only, channels on every gate, or an effective rule that
// matches no gate of the ansatz — a sweep compiles one plan and reports
// that plan's block ledger, and every point equals an independent flat
// evaluation of the bound circuit.
func TestSweepLedgerEveryModel(t *testing.T) {
	c := circuit.QAOAAnsatz(4, 1)
	spec := ReadoutSpec{
		Shots: 64, Seed: 13, Trajectories: 24,
		Observables: []Observable{{Paulis: "ZZ", Qubits: []int{0, 1}}},
	}
	bindings := qaoaEnvs(c, 3)
	models := []struct {
		name  string
		model *noise.Model
	}{
		{"ideal", nil},
		{"readout-only", noise.NewModel().WithReadout(0.02, 0.01)},
		{"depolarizing", noise.Global(noise.Depolarizing(0.01))},
		{"absent-gate", noise.OnGates(noise.Depolarizing(0.01), "cz")},
	}
	for _, tc := range models {
		opts := Options{Noise: tc.model, Workers: 1}
		rep, err := Sweep(c, opts, spec, bindings)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		plan, err := noise.Compile(c, tc.model, noise.CompileOptions{Fuse: true})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Compiles != 1 || rep.TouchedBlocks <= 0 || rep.TouchedBlocks+rep.SharedBlocks != plan.Blocks() {
			t.Fatalf("%s: compiles=%d touched=%d shared=%d, want 1, >0, sum %d",
				tc.name, rep.Compiles, rep.TouchedBlocks, rep.SharedBlocks, plan.Blocks())
		}
		for i, p := range rep.Points {
			bound, err := c.Bind(bindings[i])
			if err != nil {
				t.Fatal(err)
			}
			want, err := Evaluate(bound, Options{Noise: tc.model, Backend: "flat", Workers: 1}, spec)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if math.Abs(p.Readouts.Observables[0].Value-want.Observables[0].Value) > 1e-9 {
				t.Fatalf("%s point %d: ⟨ZZ⟩ %v vs concrete %v", tc.name, i, p.Readouts.Observables[0].Value, want.Observables[0].Value)
			}
			if !reflect.DeepEqual(p.Readouts.Counts, want.Counts) {
				t.Fatalf("%s point %d: counts %v vs concrete %v", tc.name, i, p.Readouts.Counts, want.Counts)
			}
		}
	}
}

// TestOptimizeValidation covers the submit-time failure modes: every
// malformed spec fails OptimizeSpec.Validate naming the problem, and
// Optimize reports the same error before compiling anything.
func TestOptimizeValidation(t *testing.T) {
	c := circuit.QAOAAnsatz(3, 1)
	obs := []Observable{{Paulis: "Z", Qubits: []int{0}}}
	cases := []struct {
		name string
		spec OptimizeSpec
		c    *circuit.Circuit
		want string
	}{
		{"ok", OptimizeSpec{Observables: obs, Init: map[string]float64{"gamma0": 0.3}}, c, ""},
		{"method", OptimizeSpec{Observables: obs, Method: "newton"}, c, "unknown optimizer"},
		{"no-observables", OptimizeSpec{}, c, "at least one observable"},
		{"observable-qubit", OptimizeSpec{Observables: []Observable{{Paulis: "Z", Qubits: []int{5}}}}, c, "observable 0"},
		{"negative-trajectories", OptimizeSpec{Observables: obs, Trajectories: -1}, c, "negative trajectory count"},
		{"no-symbols", OptimizeSpec{Observables: obs}, circuit.MustNamed("ising", 3), "no symbols"},
		{"unknown-init", OptimizeSpec{Observables: obs, Init: map[string]float64{"nope": 1}}, c, `"nope"`},
		{"nan-init", OptimizeSpec{Observables: obs, Init: map[string]float64{"gamma0": math.NaN()}}, c, `non-finite init value NaN for symbol "gamma0"`},
		{"inf-init", OptimizeSpec{Observables: obs, Init: map[string]float64{"beta0": math.Inf(-1)}}, c, `symbol "beta0"`},
	}
	for _, tc := range cases {
		err := tc.spec.Validate(tc.c)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
		if _, oerr := Optimize(tc.c, Options{}, tc.spec); oerr == nil || oerr.Error() != err.Error() {
			t.Errorf("%s: Optimize err = %v, want %v", tc.name, oerr, err)
		}
	}
}
