package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"hisvsim/internal/circuit"
	"hisvsim/internal/core"
	"hisvsim/internal/noise"
	"hisvsim/internal/qasm"
)

// request is one generated job. Body is all the program ever sees; the
// remaining fields are the generator's own record of what it asked for,
// which the output checks rebuild their references from.
type request struct {
	ID    string // workload/index, unique within a run
	Class string // latency class (family, lm, job shape)
	Check bool   // seeded choice: verify this answer off the clock
	Body  []byte // JSON submit body

	qasm     string               // cold-wide, sweep, dm: the circuit as sent
	circ     *circuit.Circuit     // hot-mix, noisy-fleet: the generator's circuit
	opts     core.Options         // options the body carries
	spec     core.ReadoutSpec     // readouts the body carries
	bindings []map[string]float64 // sweep points
}

// Wire shapes of the v3 submit body (POST /v1/jobs). Only kinds "run" and
// "sweep" are ever sent.
type wireCircuit struct {
	QASM   string `json:"qasm,omitempty"`
	Family string `json:"family,omitempty"`
	Qubits int    `json:"qubits,omitempty"`
}

type wireObservable struct {
	Name   string  `json:"name"`
	Coeff  float64 `json:"coeff"`
	Paulis string  `json:"paulis"`
	Qubits []int   `json:"qubits"`
}

type wireReadouts struct {
	Shots        int              `json:"shots,omitempty"`
	Seed         int64            `json:"seed,omitempty"`
	Marginals    [][]int          `json:"marginals,omitempty"`
	Observables  []wireObservable `json:"observables,omitempty"`
	Trajectories int              `json:"trajectories,omitempty"`
	TrajOffset   int              `json:"traj_offset,omitempty"`
	TrajTotal    int              `json:"traj_total,omitempty"`
	Moments      bool             `json:"moments,omitempty"`
}

type wireNoiseRule struct {
	Channel string  `json:"channel"`
	P       float64 `json:"p"`
	Qubits  []int   `json:"qubits,omitempty"`
}

type wireNoise struct {
	Rules []wireNoiseRule `json:"rules"`
}

type wireSweep struct {
	Bindings []map[string]float64 `json:"bindings"`
}

type wireOptions struct {
	Backend string `json:"backend,omitempty"`
	Lm      int    `json:"lm,omitempty"`
}

type wireRequest struct {
	Circuit  wireCircuit   `json:"circuit"`
	Kind     string        `json:"kind"`
	Readouts *wireReadouts `json:"readouts,omitempty"`
	Sweep    *wireSweep    `json:"sweep,omitempty"`
	Noise    *wireNoise    `json:"noise,omitempty"`
	Options  wireOptions   `json:"options"`
}

func toWireReadouts(spec core.ReadoutSpec) *wireReadouts {
	w := &wireReadouts{Shots: spec.Shots, Seed: spec.Seed, Marginals: spec.Marginals,
		Trajectories: spec.Trajectories, TrajOffset: spec.TrajOffset,
		TrajTotal: spec.TrajTotal, Moments: spec.Moments}
	for _, ob := range spec.Observables {
		w.Observables = append(w.Observables, wireObservable{
			Name: ob.Name, Coeff: ob.Coeff, Paulis: ob.Paulis, Qubits: ob.Qubits})
	}
	return w
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only generator-built values are marshalled
	}
	return b
}

// randomObservables draws k weighted Pauli strings of weight 1–3 over
// distinct qubits of an n-qubit register. Coefficients stay away from 0,
// which the wire format rejects.
func randomObservables(rng *rand.Rand, n, k int) []core.Observable {
	out := make([]core.Observable, k)
	for i := range out {
		w := 1 + rng.Intn(3)
		qs := rng.Perm(n)[:w]
		ps := make([]byte, w)
		for j := range ps {
			ps[j] = "XYZ"[rng.Intn(3)]
		}
		out[i] = core.Observable{Name: fmt.Sprintf("o%d", i),
			Coeff: 0.5 + rng.Float64(), Paulis: string(ps), Qubits: qs}
	}
	return out
}

// ---- cold-wide -----------------------------------------------------------

const coldQubits = 20

// coldBases are the fixed 20-qubit structures cold-wide rotates over; only
// the angles change between requests, so the per-request cost is stable
// across seeds while every fingerprint is new.
func coldBases() []*circuit.Circuit {
	return []*circuit.Circuit{
		circuit.QFT(coldQubits),
		circuit.Ising(coldQubits, 3),
		circuit.Random(coldQubits, 8*coldQubits, 17),
	}
}

// perturb returns a copy of c with every concrete angle shifted by a
// seeded amount in [-0.05, 0.05).
func perturb(c *circuit.Circuit, rng *rand.Rand) *circuit.Circuit {
	out := c.Clone()
	for i, g := range out.Gates {
		if len(g.Params) == 0 || g.Args != nil {
			continue
		}
		ps := append([]float64(nil), g.Params...)
		for j := range ps {
			ps[j] += 0.1 * (rng.Float64() - 0.5)
		}
		g.Params = ps
		out.Gates[i] = g
	}
	return out
}

// coldLm15 marks which positions of the 12-request cycle pin
// options.lm = 15: half of them, two of four qft, one of four ising and
// three of four random requests. The uneven split keeps the median and
// p90 ranks inside one family×lm latency class rather than on the edge
// between two, so they do not jump with the exact request count.
var coldLm15 = [12]bool{0: true, 1: true, 2: true, 5: true, 6: true, 8: true}

// coldWide generates n cold-wide requests: new 20-qubit circuits sent as
// OpenQASM, family rotating qft → ising → random, half pinning
// options.lm = 15 (coldLm15), 1024 shots plus 2–4 Pauli observables
// each. One request in eight is checked against the flat backend.
func coldWide(seed int64, n int) []*request {
	rng := rand.New(rand.NewSource(seed))
	bases := coldBases()
	out := make([]*request, n)
	for i := range out {
		base := bases[i%len(bases)]
		src := qasm.Write(perturb(base, rng))
		lm := 0
		if coldLm15[i%len(coldLm15)] {
			lm = 15
		}
		spec := core.ReadoutSpec{Shots: 1024, Seed: rng.Int63(),
			Observables: randomObservables(rng, coldQubits, 2+rng.Intn(3))}
		r := &request{
			ID:    fmt.Sprintf("cold-wide/%d", i),
			Class: fmt.Sprintf("%s/lm%d", base.Name, lm),
			Check: rng.Intn(8) == 0 || i == 0,
			qasm:  src, opts: core.Options{Lm: lm}, spec: spec,
		}
		r.Body = mustJSON(wireRequest{Circuit: wireCircuit{QASM: src}, Kind: "run",
			Readouts: toWireReadouts(spec), Options: wireOptions{Lm: lm}})
		out[i] = r
	}
	return out
}

// coldWarmup is one cold request outside the stream (its own seed space),
// sent during set-up so the first timed request meets warm code paths.
func coldWarmup(seed int64) []*request {
	r := coldWide(^seed, 1)[0]
	r.ID = "cold-wide/warmup"
	return []*request{r}
}

// ---- hot-mix -------------------------------------------------------------

// hotEntry is one catalogue circuit, sent by generator family.
type hotEntry struct {
	Family string
	Qubits int
}

// hotCatalogue is the fixed 32-circuit catalogue, most popular first:
// eight families at 12, 14, 16 and 18 qubits. The order is a fixed
// permutation, so the same circuits are hot under every seed, with the
// four 18-qubit circuits last (2.6% of Zipf draws): p90 then falls inside
// the dense 16-qubit latency band instead of on the sparse edge between
// the 16- and 18-qubit bands, where it moved with each seed's draws.
func hotCatalogue() []hotEntry {
	var out []hotEntry
	for _, f := range []string{"qft", "ising", "qaoa", "random", "bv", "cc", "qnn", "cat_state"} {
		for _, q := range []int{12, 14, 16, 18} {
			out = append(out, hotEntry{f, q})
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	sort.SliceStable(out, func(i, j int) bool { return out[i].Qubits < 18 && out[j].Qubits == 18 })
	return out
}

// hotMix generates n hot-mix requests: Zipf(s=1.1) draws over the
// catalogue, each with fresh seeded shots, one marginal and 2–4
// observables. One request in sixteen is checked.
func hotMix(seed int64, n int) []*request {
	rng := rand.New(rand.NewSource(seed))
	cat := hotCatalogue()
	circs := make([]*circuit.Circuit, len(cat))
	for i, e := range cat {
		circs[i] = circuit.MustNamed(e.Family, e.Qubits)
	}
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(cat)-1))
	out := make([]*request, n)
	for i := range out {
		k := zipf.Uint64()
		out[i] = hotRequest(fmt.Sprintf("hot-mix/%d", i), cat[k], circs[k], rng, 1024)
		out[i].Check = rng.Intn(16) == 0
	}
	return out
}

func hotRequest(id string, e hotEntry, c *circuit.Circuit, rng *rand.Rand, shots int) *request {
	spec := core.ReadoutSpec{Shots: shots, Seed: rng.Int63(),
		Marginals:   [][]int{rng.Perm(e.Qubits)[:2+rng.Intn(2)]},
		Observables: randomObservables(rng, e.Qubits, 2+rng.Intn(3))}
	return &request{
		ID: id, Class: fmt.Sprintf("%s-%d", e.Family, e.Qubits),
		circ: c, spec: spec,
		Body: mustJSON(wireRequest{
			Circuit: wireCircuit{Family: e.Family, Qubits: e.Qubits}, Kind: "run",
			Readouts: toWireReadouts(spec)}),
	}
}

// hotWarmup simulates every catalogue circuit once, filling the cache.
func hotWarmup(seed int64) []*request {
	rng := rand.New(rand.NewSource(^seed))
	var out []*request
	for _, e := range hotCatalogue() {
		r := hotRequest(fmt.Sprintf("hot-mix/warmup-%s-%d", e.Family, e.Qubits), e, circuit.MustNamed(e.Family, e.Qubits), rng, 16)
		r.Check = true
		out = append(out, r)
	}
	return out
}

// ---- noisy-fleet ---------------------------------------------------------

const (
	noisyQubits = 12
	noisyTraj   = 512
	sweepPoints = 64
	dmQubits    = 8
)

// noisyRules is the fixed noise model: depolarizing after every gate, and
// amplitude damping (T1 decay) on two qubits. Damping is the non-unital,
// costly channel; confining it keeps a 512-trajectory job near half a
// second, so a run holds enough jobs for steady percentiles.
var noisyRules = []wireNoiseRule{
	{Channel: "depolarizing", P: 0.005},
	{Channel: "amplitude_damping", P: 0.002, Qubits: []int{0, 1}},
}

func noisyModel() *noise.Model {
	m := &noise.Model{}
	for _, r := range noisyRules {
		ch, err := noise.NewChannel(r.Channel, r.P)
		if err != nil {
			panic(err) // fixed, valid constants
		}
		m.AddRule(noise.Rule{Channel: ch, Qubits: r.Qubits})
	}
	return m
}

// noisyCycle is the fixed job mix, repeated: three qaoa and two ising
// 512-trajectory ensembles, two 64-point sweeps and one exact-ρ dm job in
// every eight requests. Latency ranks sweep < dm < ising < qaoa put the
// median in the middle of the ising band and p90 well inside the qaoa
// band, the largest one, so both rest on as many samples as possible.
var noisyCycle = []string{"ensemble/qaoa", "sweep", "ensemble/ising", "ensemble/qaoa",
	"sweep", "ensemble/ising", "ensemble/qaoa", "dm"}

// sweepTemplate is the qaoa_ansatz-12 template (one layer: gamma0, beta0)
// as symbolic OpenQASM.
func sweepTemplate() string { return qasm.Write(circuit.QAOAAnsatz(noisyQubits, 1)) }

// noisyFleet generates n noisy-fleet requests following noisyCycle. The
// first request of each class is always checked, later ones one in eight.
func noisyFleet(seed int64, n int) []*request {
	rng := rand.New(rand.NewSource(seed))
	tmpl := sweepTemplate()
	seen := map[string]bool{}
	out := make([]*request, n)
	for i := range out {
		class := noisyCycle[i%len(noisyCycle)]
		r := noisyRequest(fmt.Sprintf("noisy-fleet/%d", i), class, tmpl, rng, noisyTraj)
		r.Check = !seen[class] || rng.Intn(8) == 0
		seen[class] = true
		out[i] = r
	}
	return out
}

func noisyRequest(id, class, tmpl string, rng *rand.Rand, traj int) *request {
	r := &request{ID: id, Class: class}
	wr := wireRequest{Kind: "run"}
	switch class {
	case "ensemble/ising", "ensemble/qaoa":
		family := class[len("ensemble/"):]
		r.circ = circuit.MustNamed(family, noisyQubits)
		r.spec = core.ReadoutSpec{Shots: 1024, Seed: rng.Int63(), Trajectories: traj,
			Marginals:   [][]int{rng.Perm(noisyQubits)[:2]},
			Observables: randomObservables(rng, noisyQubits, 3)}
		r.opts = core.Options{Noise: noisyModel()}
		wr.Circuit = wireCircuit{Family: family, Qubits: noisyQubits}
		wr.Noise = &wireNoise{Rules: noisyRules}
	case "sweep":
		r.qasm = tmpl
		r.spec = core.ReadoutSpec{Shots: 256, Seed: rng.Int63(),
			Observables: randomObservables(rng, noisyQubits, 2)}
		for p := 0; p < sweepPoints; p++ {
			r.bindings = append(r.bindings, map[string]float64{
				"gamma0": math.Pi * rng.Float64(), "beta0": math.Pi / 2 * rng.Float64()})
		}
		wr.Kind = "sweep"
		wr.Circuit = wireCircuit{QASM: tmpl}
		wr.Sweep = &wireSweep{Bindings: r.bindings}
	case "dm":
		// Perturbed angles make every dm circuit new, so each job evolves
		// ρ instead of hitting the service's ρ cache.
		base := circuit.MustNamed([]string{"ising", "qaoa"}[rng.Intn(2)], dmQubits)
		all := make([]int, dmQubits)
		for q := range all {
			all[q] = q
		}
		r.qasm = qasm.Write(perturb(base, rng))
		r.spec = core.ReadoutSpec{Shots: 1024, Seed: rng.Int63(), Marginals: [][]int{all},
			Observables: randomObservables(rng, dmQubits, 2)}
		r.opts = core.Options{Backend: "dm", Noise: noisyModel()}
		wr.Circuit = wireCircuit{QASM: r.qasm}
		wr.Noise = &wireNoise{Rules: noisyRules}
		wr.Options = wireOptions{Backend: "dm"}
	default:
		panic("noisy-fleet: unknown class " + class)
	}
	wr.Readouts = toWireReadouts(r.spec)
	r.Body = mustJSON(wr)
	return r
}

// noisyWarmup sends one job of every shape, ensembles cut to 128
// trajectories (still split across both workers), so each worker compiles
// every noisy plan and the sweep template before timing starts.
func noisyWarmup(seed int64) []*request {
	rng := rand.New(rand.NewSource(^seed))
	tmpl := sweepTemplate()
	var out []*request
	for _, class := range []string{"ensemble/ising", "ensemble/qaoa", "sweep", "dm"} {
		out = append(out, noisyRequest("noisy-fleet/warmup-"+class, class, tmpl, rng, 128))
	}
	return out
}
