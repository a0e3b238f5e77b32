package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"hisvsim/internal/circuit"
	"hisvsim/internal/core"
	"hisvsim/internal/noise"
	"hisvsim/internal/qasm"
	"hisvsim/internal/sv"
)

// answer is the comparable part of one readout set: counts keyed by
// bitstring (qubit n−1 leftmost), marginals and observables in request
// order.
type answer struct {
	Counts      map[string]int `json:"counts"`
	Marginals   [][]float64    `json:"marginals"`
	Observables []obsValue     `json:"observables"`
}

type obsValue struct {
	Name   string  `json:"name"`
	Value  float64 `json:"value"`
	StdErr float64 `json:"stderr"`
}

// jobBody is the decoded final job body (service and coordinator share it).
type jobBody struct {
	Result struct {
		answer
		Trajectories int `json:"trajectories"`
		Sweep        *struct {
			Points []answer `json:"points"`
		} `json:"sweep"`
	} `json:"result"`
}

func decodeJob(raw []byte) (*jobBody, error) {
	var j jobBody
	if err := json.Unmarshal(raw, &j); err != nil {
		return nil, fmt.Errorf("decode result: %w", err)
	}
	return &j, nil
}

func bitstring(basis, n int) string {
	b := make([]byte, n)
	for i := 0; i < n; i++ {
		b[n-1-i] = byte('0' + (basis>>uint(i))&1)
	}
	return string(b)
}

// toAnswer renders in-process readouts the way the wire does.
func toAnswer(ro *core.Readouts, n int) answer {
	a := answer{Marginals: ro.Marginals}
	if ro.Counts != nil {
		a.Counts = make(map[string]int, len(ro.Counts))
		for basis, c := range ro.Counts {
			a.Counts[bitstring(basis, n)] = c
		}
	}
	for _, ov := range ro.Observables {
		a.Observables = append(a.Observables, obsValue{ov.Name, ov.Value, ov.StdErr})
	}
	return a
}

// sameBits reports the first difference between two answers, comparing
// every float bit for bit; "" means identical.
func sameBits(got, want answer) string {
	if len(got.Counts) != len(want.Counts) {
		return fmt.Sprintf("%d distinct outcomes, want %d", len(got.Counts), len(want.Counts))
	}
	keys := make([]string, 0, len(want.Counts))
	for k := range want.Counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got.Counts[k] != want.Counts[k] {
			return fmt.Sprintf("count[%s] = %d, want %d", k, got.Counts[k], want.Counts[k])
		}
	}
	if len(got.Marginals) != len(want.Marginals) {
		return fmt.Sprintf("%d marginals, want %d", len(got.Marginals), len(want.Marginals))
	}
	for i := range want.Marginals {
		if len(got.Marginals[i]) != len(want.Marginals[i]) {
			return fmt.Sprintf("marginal %d has %d entries, want %d", i, len(got.Marginals[i]), len(want.Marginals[i]))
		}
		for j, w := range want.Marginals[i] {
			if math.Float64bits(got.Marginals[i][j]) != math.Float64bits(w) {
				return fmt.Sprintf("marginal %d[%d] = %v, want %v", i, j, got.Marginals[i][j], w)
			}
		}
	}
	return obsDiff(got.Observables, want.Observables, 0)
}

// obsDiff compares observables within tol (0 = bit-identical, stderr too).
func obsDiff(got, want []obsValue, tol float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d observables, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if tol == 0 {
			if math.Float64bits(g.Value) != math.Float64bits(w.Value) || math.Float64bits(g.StdErr) != math.Float64bits(w.StdErr) {
				return fmt.Sprintf("observable %s = %v±%v, want %v±%v", w.Name, g.Value, g.StdErr, w.Value, w.StdErr)
			}
		} else if !(math.Abs(g.Value-w.Value) <= tol) {
			return fmt.Sprintf("observable %s = %.15g, want %.15g (tol %g)", w.Name, g.Value, w.Value, tol)
		}
	}
	return ""
}

func countSum(c map[string]int) int {
	n := 0
	for _, v := range c {
		n += v
	}
	return n
}

// checker verifies answers off the clock. It keeps per-circuit reference
// states so a hot catalogue circuit is simulated once however often it is
// checked.
type checker struct {
	states map[string]*refState
}

type refState struct {
	st      *sv.State
	sampler *sv.Sampler
}

func newChecker() *checker { return &checker{states: map[string]*refState{}} }

// check returns "" when raw is a correct answer to r, else the mismatch.
func (k *checker) check(ctx context.Context, workload string, r *request, raw []byte) (string, error) {
	job, err := decodeJob(raw)
	if err != nil {
		return err.Error(), nil
	}
	switch workload {
	case "cold-wide":
		return k.checkCold(ctx, r, job)
	case "hot-mix":
		return k.checkHot(ctx, r, job)
	default:
		return k.checkNoisy(ctx, r, job)
	}
}

// checkCold re-runs the circuit on the flat reference backend: observables
// must agree to 1e-9, and the shots must sum to the request's count.
func (k *checker) checkCold(ctx context.Context, r *request, job *jobBody) (string, error) {
	if n := countSum(job.Result.Counts); n != r.spec.Shots {
		return fmt.Sprintf("counts sum to %d, want %d", n, r.spec.Shots), nil
	}
	c, err := qasm.ParseToCircuit(r.qasm)
	if err != nil {
		return "", err
	}
	ref, err := core.EvaluateContext(ctx, c, core.Options{Backend: "flat"}, r.spec)
	if err != nil {
		return "", err
	}
	return obsDiff(job.Result.Observables, toAnswer(&ref.Readouts, c.NumQubits).Observables, 1e-9), nil
}

// checkHot derives the expected answer from the catalogue circuit's
// reference state: it must match bit for bit.
func (k *checker) checkHot(ctx context.Context, r *request, job *jobBody) (string, error) {
	ref, err := k.reference(ctx, r.circ)
	if err != nil {
		return "", err
	}
	want := toAnswer(core.EvaluateState(ref.st, ref.sampler, r.spec), r.circ.NumQubits)
	return sameBits(job.Result.answer, want), nil
}

func (k *checker) reference(ctx context.Context, c *circuit.Circuit) (*refState, error) {
	fp := c.Fingerprint()
	if ref := k.states[fp]; ref != nil {
		return ref, nil
	}
	res, err := core.SimulateContext(ctx, c, core.Options{})
	if err != nil {
		return nil, err
	}
	ref := &refState{st: res.State, sampler: sv.NewSampler(res.State)}
	k.states[fp] = ref
	return ref, nil
}

// checkNoisy compares a merged ensemble with a single-node in-process
// noise.RunEnsemble, a merged sweep with core.SweepContext (both bit for
// bit, same seeds), and requires trace 1 ± 1e-9 of an exact dm job.
func (k *checker) checkNoisy(ctx context.Context, r *request, job *jobBody) (string, error) {
	switch r.Class {
	case "sweep":
		tmpl, err := qasm.ParseToCircuit(r.qasm)
		if err != nil {
			return "", err
		}
		rep, err := core.SweepContext(ctx, tmpl, core.Options{}, r.spec, r.bindings)
		if err != nil {
			return "", err
		}
		if job.Result.Sweep == nil || len(job.Result.Sweep.Points) != len(rep.Points) {
			return fmt.Sprintf("sweep answered %d points, want %d", sweepLen(job), len(rep.Points)), nil
		}
		for i, p := range rep.Points {
			if d := sameBits(job.Result.Sweep.Points[i], toAnswer(p.Readouts, tmpl.NumQubits)); d != "" {
				return fmt.Sprintf("point %d: %s", i, d), nil
			}
		}
		return "", nil
	case "dm":
		if n := countSum(job.Result.Counts); n != r.spec.Shots {
			return fmt.Sprintf("counts sum to %d, want %d", n, r.spec.Shots), nil
		}
		if len(job.Result.Marginals) != 1 {
			return "dm job answered no full marginal", nil
		}
		tr := 0.0
		for _, p := range job.Result.Marginals[0] {
			tr += p
		}
		if math.Abs(tr-1) > 1e-9 {
			return fmt.Sprintf("trace %.15g, want 1 ± 1e-9", tr), nil
		}
		return "", nil
	default:
		want, err := ensembleReference(ctx, r)
		if err != nil {
			return "", err
		}
		if job.Result.Trajectories != r.spec.Trajectories {
			return fmt.Sprintf("%d trajectories merged, want %d", job.Result.Trajectories, r.spec.Trajectories), nil
		}
		return sameBits(job.Result.answer, want), nil
	}
}

func sweepLen(job *jobBody) int {
	if job.Result.Sweep == nil {
		return 0
	}
	return len(job.Result.Sweep.Points)
}

// ensembleReference runs the whole ensemble on one node in-process.
func ensembleReference(ctx context.Context, r *request) (answer, error) {
	plan, err := noise.Compile(r.circ, r.opts.Noise, noise.CompileOptions{Fuse: true})
	if err != nil {
		return answer{}, err
	}
	ens, err := noise.RunEnsemble(ctx, plan, r.spec.NoisyRunConfig(0))
	if err != nil {
		return answer{}, err
	}
	return toAnswer(core.ReadoutsFromEnsemble(ens, r.spec), r.circ.NumQubits), nil
}
