package service

import (
	"fmt"
	"math"
	"sort"
	"time"

	"hisvsim/internal/core"
)

// This file is the service half of the v3 template surface: binding-grid
// expansion (SweepSpec) and the executors for KindSweep and KindOptimize.
// Every template job replays one cached noise.Plan per (template, noise
// model, fusion options), keyed on the template fingerprint, so "M bindings
// = 1 compile" holds ACROSS jobs as well as within one; bound KindRun jobs
// share that plan through entryFor.

// SweepSpec names a sweep job's binding grid. Exactly one of Bindings or
// Grid must be set.
type SweepSpec struct {
	// Bindings is the explicit point list, evaluated in order.
	Bindings []map[string]float64
	// Grid gives per-symbol value lists. By default the points are the
	// cartesian product in sorted symbol order (last symbol fastest); with
	// Zip the columns must have equal length L and yield L points
	// (column i of every symbol forms point i).
	Grid map[string][]float64
	Zip  bool
}

// Expand resolves the spec to its explicit binding list, rejecting
// malformed grids (both/neither form set, zip length mismatch, products
// over limit) with errors that name the offending symbols. Exported so a
// cluster coordinator can expand a grid once and split the points into
// contiguous sub-ranges.
func (sp *SweepSpec) Expand(limit int) ([]map[string]float64, error) {
	if len(sp.Bindings) > 0 && len(sp.Grid) > 0 {
		return nil, fmt.Errorf("sweep: set Bindings or Grid, not both")
	}
	if len(sp.Bindings) > 0 {
		return sp.Bindings, nil
	}
	if len(sp.Grid) == 0 {
		return nil, fmt.Errorf("sweep: empty binding grid (set Bindings or Grid)")
	}
	syms := make([]string, 0, len(sp.Grid))
	for s := range sp.Grid {
		syms = append(syms, s)
	}
	sort.Strings(syms)
	for _, s := range syms {
		if len(sp.Grid[s]) == 0 {
			return nil, fmt.Errorf("sweep: symbol %q has no grid values", s)
		}
		for _, v := range sp.Grid[s] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("sweep: non-finite grid value %v for symbol %q", v, s)
			}
		}
	}
	if sp.Zip {
		want := len(sp.Grid[syms[0]])
		for _, s := range syms[1:] {
			if len(sp.Grid[s]) != want {
				return nil, fmt.Errorf("sweep: grid-size mismatch: symbol %q has %d values, %q has %d",
					syms[0], want, s, len(sp.Grid[s]))
			}
		}
		if want > limit {
			return nil, fmt.Errorf("sweep: grid has %d points, limit %d", want, limit)
		}
		out := make([]map[string]float64, want)
		for i := range out {
			env := make(map[string]float64, len(syms))
			for _, s := range syms {
				env[s] = sp.Grid[s][i]
			}
			out[i] = env
		}
		return out, nil
	}
	total := 1
	for _, s := range syms {
		if total > limit/len(sp.Grid[s]) {
			return nil, fmt.Errorf("sweep: cartesian grid exceeds %d points", limit)
		}
		total *= len(sp.Grid[s])
	}
	out := make([]map[string]float64, 0, total)
	idx := make([]int, len(syms))
	for {
		env := make(map[string]float64, len(syms))
		for i, s := range syms {
			env[s] = sp.Grid[s][idx[i]]
		}
		out = append(out, env)
		// Odometer increment, last symbol fastest.
		i := len(syms) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(sp.Grid[syms[i]]) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return out, nil
		}
	}
}

// validateOptimize checks a KindOptimize request at submit: the spec
// itself (core.OptimizeSpec.Validate) plus this service's work limits, so
// every failure a worker could hit becomes a 400 naming the problem.
func (s *Service) validateOptimize(req Request) error {
	spec := req.Optimize
	if err := spec.Validate(req.Circuit); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	if spec.MaxIters > s.cfg.MaxOptimizeIters {
		return fmt.Errorf("service: %d iterations exceeds limit %d", spec.MaxIters, s.cfg.MaxOptimizeIters)
	}
	if spec.Trajectories > s.cfg.MaxTrajectories {
		return fmt.Errorf("service: %d trajectories exceeds limit %d", spec.Trajectories, s.cfg.MaxTrajectories)
	}
	return nil
}

// executeSweep evaluates a binding grid against the one cached template
// plan for (template, noise model, fusion options) through
// core.SweepPlan. Result.Sweep.Compiles counts the plan compiles THIS job
// caused: 1 on a cold cache for any grid size, 0 once the plan is cached.
func (s *Service) executeSweep(j *job) (*Result, error) {
	start := time.Now()
	req := j.req
	workers := req.Options.Workers
	effective := !req.Noise.IsZero()
	if effective {
		// Widen across the shared token pool exactly like executeNoisy.
		width, release := s.widenTrajectories()
		defer release()
		workers = width
	}
	j.trace.Begin(stageCompile)
	plan, hit, err := s.noisePlanFor(j)
	if err != nil {
		return nil, err
	}
	backendName := j.idealBackend
	if !plan.NoiseFree() {
		backendName = BackendTrajectory
	}
	s.setBackend(j, backendName)
	j.trace.Begin(stageExecute)
	rep, err := core.SweepPlan(j.ctx, plan, req.Readouts, req.Sweep.Bindings, workers, effective)
	if err != nil {
		return nil, err
	}
	if !hit {
		rep.Compiles = 1
	}
	s.m.trajectories.Add(int64(rep.Trajectories) * int64(len(rep.Points)))
	rep.Elapsed = time.Since(start)
	return &Result{
		Kind: KindSweep, Backend: backendName, NumQubits: req.Circuit.NumQubits,
		CacheHit:     hit,
		Sweep:        rep,
		Trajectories: rep.Trajectories,
		Waited:       j.started.Sub(j.submitted),
		Elapsed:      rep.Elapsed,
	}, nil
}

// executeOptimize runs the server-side variational loop. The loop owns its
// template (compiled once inside core.OptimizeContext — counted here so
// the stats ledger stays truthful); its trajectory work is credited like
// any ensemble's.
func (s *Service) executeOptimize(j *job) (*Result, error) {
	start := time.Now()
	req := j.req
	backendName := j.idealBackend
	if !req.Noise.IsZero() {
		backendName = BackendTrajectory
	}
	s.setBackend(j, backendName)
	opts := req.Options
	opts.Noise = req.Noise
	s.m.templateCompiles.Inc()
	rep, err := core.OptimizeContext(j.ctx, req.Circuit, opts, *req.Optimize)
	if err != nil {
		return nil, err
	}
	if rep.Trajectories > 0 {
		s.m.trajectories.Add(int64(rep.Trajectories) * int64(rep.Evaluations))
	}
	return &Result{
		Kind: KindOptimize, Backend: backendName, NumQubits: req.Circuit.NumQubits,
		Optimize:     rep,
		Trajectories: rep.Trajectories,
		Waited:       j.started.Sub(j.submitted),
		Elapsed:      time.Since(start),
	}, nil
}
