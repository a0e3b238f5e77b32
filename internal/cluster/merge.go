package cluster

import (
	"encoding/json"
	"fmt"

	"hisvsim/internal/noise"
)

// subResult is the slice of a worker's wire result the merge needs.
// Everything it does not model (samples, amplitudes, …) is excluded from
// split jobs by planFor, so nothing is silently dropped.
type subResult struct {
	Kind         string          `json:"kind"`
	NumQubits    int             `json:"num_qubits"`
	CacheHit     bool            `json:"cache_hit"`
	Parts        int             `json:"parts"`
	ElapsedMS    float64         `json:"elapsed_ms"`
	WaitedMS     float64         `json:"waited_ms"`
	Backend      string          `json:"backend,omitempty"`
	Counts       map[string]int  `json:"counts,omitempty"`
	Trajectories int             `json:"trajectories,omitempty"`
	Marginals    [][]float64     `json:"marginals,omitempty"`
	Observables  []subObsValue   `json:"observables,omitempty"`
	Moments      *subMoments     `json:"moments,omitempty"`
	Sweep        *subSweepResult `json:"sweep,omitempty"`
}

type subObsValue struct {
	Name   string  `json:"name,omitempty"`
	Value  float64 `json:"value"`
	StdErr float64 `json:"stderr,omitempty"`
}

type subMoments struct {
	ChunkSize int `json:"chunk_size"`
	Chunks    []struct {
		Chunk int          `json:"chunk"`
		Count int          `json:"count"`
		Obs   [][2]float64 `json:"obs,omitempty"`
		Marg  [][]float64  `json:"marg,omitempty"`
	} `json:"chunks"`
}

// subSweepResult keeps per-point payloads as raw JSON: merged sweep
// points are the workers' own bytes concatenated in grid order, so the
// per-point results are byte-identical to what each worker computed —
// and, because per-point ensembles use point-local trajectory indices,
// identical to the single-node run.
type subSweepResult struct {
	Compiles      int               `json:"compiles"`
	TouchedBlocks int               `json:"touched_blocks"`
	SharedBlocks  int               `json:"shared_blocks"`
	Trajectories  int               `json:"trajectories,omitempty"`
	Points        []json.RawMessage `json:"points"`
}

// mergedResult mirrors the worker wire result shape (service.wireResult)
// so clients cannot tell a merged job from a routed one.
type mergedResult struct {
	Kind         string             `json:"kind"`
	NumQubits    int                `json:"num_qubits"`
	CacheHit     bool               `json:"cache_hit"`
	Parts        int                `json:"parts"`
	ElapsedMS    float64            `json:"elapsed_ms"`
	WaitedMS     float64            `json:"waited_ms"`
	Backend      string             `json:"backend,omitempty"`
	Counts       map[string]int     `json:"counts,omitempty"`
	Trajectories int                `json:"trajectories,omitempty"`
	Marginals    [][]float64        `json:"marginals,omitempty"`
	Observables  []subObsValue      `json:"observables,omitempty"`
	Sweep        *mergedSweepResult `json:"sweep,omitempty"`
}

type mergedSweepResult struct {
	Compiles      int               `json:"compiles"`
	TouchedBlocks int               `json:"touched_blocks"`
	SharedBlocks  int               `json:"shared_blocks"`
	Trajectories  int               `json:"trajectories,omitempty"`
	Points        []json.RawMessage `json:"points"`
}

// mergeJob folds a job's sub-results into one client-facing result.
// Routed jobs pass the worker's bytes through verbatim.
func mergeJob(j *cjob) (json.RawMessage, error) {
	switch j.mode {
	case modeRouted:
		return j.subs[0].result, nil
	case modeSplitEnsemble:
		return mergeEnsemble(j.subs)
	case modeSplitSweep:
		return mergeSweep(j.subs)
	default:
		return nil, fmt.Errorf("cluster: unknown job mode %q", j.mode)
	}
}

// mergeEnsemble reduces trajectory sub-range results: counts and
// trajectory tallies sum exactly (integers), and the statistics re-fold
// from the workers' per-chunk partial sums via noise.AggregateMoments —
// the SAME canonical reduction a single node applies to its own chunks,
// over the SAME chunk sequence (sub-jobs are contiguous chunk-aligned
// ranges in ascending offset order) — so mean ± stderr and marginals
// come out bit-identical to the unsplit run.
func mergeEnsemble(subs []*subjob) (json.RawMessage, error) {
	parts := make([]*subResult, len(subs))
	for i, s := range subs {
		var r subResult
		if err := json.Unmarshal(s.result, &r); err != nil {
			return nil, fmt.Errorf("cluster: sub-result %d: %w", i, err)
		}
		if r.Moments == nil {
			return nil, fmt.Errorf("cluster: sub-result %d carries no moments (worker too old to merge?)", i)
		}
		parts[i] = &r
	}
	out := &mergedResult{
		Kind: parts[0].Kind, NumQubits: parts[0].NumQubits,
		Backend: parts[0].Backend, CacheHit: true,
	}
	var moments []noise.Moment
	for _, p := range parts {
		out.CacheHit = out.CacheHit && p.CacheHit
		out.Trajectories += p.Trajectories
		if p.Parts > out.Parts {
			out.Parts = p.Parts
		}
		if p.ElapsedMS > out.ElapsedMS {
			out.ElapsedMS = p.ElapsedMS
		}
		if p.WaitedMS > out.WaitedMS {
			out.WaitedMS = p.WaitedMS
		}
		if p.Counts != nil && out.Counts == nil {
			out.Counts = make(map[string]int)
		}
		for bits, n := range p.Counts {
			out.Counts[bits] += n
		}
		for _, ch := range p.Moments.Chunks {
			moments = append(moments, noise.Moment{
				Chunk: ch.Chunk, Count: ch.Count, Obs: ch.Obs, Marg: ch.Marg,
			})
		}
	}
	agg := noise.AggregateMoments(moments)
	if agg.Trajectories != out.Trajectories {
		return nil, fmt.Errorf("cluster: moment chunks cover %d trajectories, counts say %d",
			agg.Trajectories, out.Trajectories)
	}
	out.Marginals = agg.Marginals
	for k, st := range agg.Observables {
		// Names come from the first part (spec order is identical across
		// sub-jobs; only the trajectory range differs).
		name := ""
		if k < len(parts[0].Observables) {
			name = parts[0].Observables[k].Name
		}
		out.Observables = append(out.Observables, subObsValue{Name: name, Value: st.Mean, StdErr: st.StdErr})
	}
	return json.Marshal(out)
}

// mergeSweep concatenates per-point payloads in grid order. Summed
// compiles honestly report that each worker compiled the template once —
// the price of the fan-out. The block ledger is per binding, identical in
// every sub-result, so it is taken from the first.
func mergeSweep(subs []*subjob) (json.RawMessage, error) {
	out := &mergedResult{Sweep: &mergedSweepResult{Points: []json.RawMessage{}}, CacheHit: true}
	for i, s := range subs {
		var r subResult
		if err := json.Unmarshal(s.result, &r); err != nil {
			return nil, fmt.Errorf("cluster: sub-result %d: %w", i, err)
		}
		if r.Sweep == nil {
			return nil, fmt.Errorf("cluster: sub-result %d carries no sweep payload", i)
		}
		if i == 0 {
			out.Kind, out.NumQubits, out.Backend = r.Kind, r.NumQubits, r.Backend
			out.Sweep.Trajectories = r.Sweep.Trajectories
			out.Sweep.TouchedBlocks, out.Sweep.SharedBlocks = r.Sweep.TouchedBlocks, r.Sweep.SharedBlocks
		}
		out.CacheHit = out.CacheHit && r.CacheHit
		out.Trajectories += r.Trajectories
		if r.Parts > out.Parts {
			out.Parts = r.Parts
		}
		if r.ElapsedMS > out.ElapsedMS {
			out.ElapsedMS = r.ElapsedMS
		}
		if r.WaitedMS > out.WaitedMS {
			out.WaitedMS = r.WaitedMS
		}
		out.Sweep.Compiles += r.Sweep.Compiles
		out.Sweep.Points = append(out.Sweep.Points, r.Sweep.Points...)
	}
	return json.Marshal(out)
}
