package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"hisvsim/internal/circuit"
	"hisvsim/internal/core"
	"hisvsim/internal/fuse"
	"hisvsim/internal/noise"
	"hisvsim/internal/obs"
	"hisvsim/internal/prof"
	"hisvsim/internal/qasm"
)

// NewHandler exposes the service over HTTP/JSON:
//
//	POST   /v1/jobs             submit a job            → 202 {id, status}
//	GET    /v1/jobs/{id}        poll a job snapshot     → 200 job JSON
//	GET    /v1/jobs/{id}/result long-poll for the result (?wait=30s)
//	GET    /v1/jobs/{id}/trace  per-stage timing trace  → 200 trace JSON
//	GET    /v1/jobs/{id}/profile kernel-level execution profile → 200 profile JSON
//	DELETE /v1/jobs/{id}        cancel                  → 200 job JSON
//	GET    /v1/backends         registered execution backends
//	GET    /v1/stats            service counters
//	GET    /metrics             Prometheus text exposition
//	GET    /healthz             liveness (200 until the process exits)
//	GET    /readyz              readiness (503 once graceful drain begins)
//
// The submit body names the circuit either inline ("qasm") or by generator
// family ("family" + "qubits"), the kind, and the simulation options; see
// wireRequest. Kind "run" carries a "readouts" spec — any mix of
// statevector, shots, marginals and Pauli observables answered by one
// simulation; "options.backend" picks the execution engine. Sample counts
// are keyed by bitstring (most-significant qubit first). Any other kind,
// or an unknown top-level field, is a 400.
//
// The v3 parameterized surface rides the same endpoint: QASM may leave
// gate angles symbolic (rz(gamma) q[0];), kind "run" binds them via
// "params", kind "sweep" evaluates a binding grid ("sweep": bindings or
// grid+zip) against one compiled template, and kind "optimize" runs a
// server-side SPSA/Nelder-Mead loop ("optimize": observables, method,
// init, max_iters, …). Binding mistakes — unbound, unknown or non-finite
// symbols, grid-size mismatches — are 400s naming the symbol.
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) { handleSubmit(s, w, r) })
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) { handleJob(s, w, r) })
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) { handleResult(s, w, r) })
	mux.HandleFunc("GET /v1/jobs/{id}/trace", func(w http.ResponseWriter, r *http.Request) { handleTrace(s, w, r) })
	mux.HandleFunc("GET /v1/jobs/{id}/profile", func(w http.ResponseWriter, r *http.Request) { handleProfile(s, w, r) })
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) { handleCancel(s, w, r) })
	mux.HandleFunc("GET /v1/backends", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, core.Backends())
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		// Readiness is distinct from liveness: once graceful shutdown
		// begins the process is still alive (healthz 200, in-flight jobs
		// finishing) but must stop receiving new traffic.
		if s.Draining() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"ready": true})
	})
	mux.Handle("GET /metrics", s.Metrics().Handler())
	return mux
}

// ParseRequest decodes a submit body into a Request without enqueuing it.
// The cluster coordinator uses it to route (circuit fingerprint) and to
// decide whether a job is splittable; the original bytes — not the parsed
// form — are what it forwards, so workers see the request verbatim.
func ParseRequest(body []byte) (*Request, error) {
	req, err := decodeRequest(body)
	if err != nil {
		return nil, err
	}
	return &req, nil
}

// decodeRequest decodes one submit body; unknown fields are errors. A body
// naming a kind that does not exist reports that first: a v1 body's stray
// top-level fields ("shots", "qubits", …) are a symptom of its kind.
func decodeRequest(body []byte) (Request, error) {
	var wr wireRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&wr); err != nil {
		var head struct {
			Kind string `json:"kind"`
		}
		if json.Unmarshal(body, &head) == nil && head.Kind != "" {
			if kerr := checkKind(Kind(head.Kind)); kerr != nil {
				return Request{}, kerr
			}
		}
		return Request{}, err
	}
	return wr.toRequest()
}

// wireRequest is the submit body.
type wireRequest struct {
	Circuit struct {
		QASM   string `json:"qasm,omitempty"`
		Family string `json:"family,omitempty"`
		Qubits int    `json:"qubits,omitempty"`
	} `json:"circuit"`
	Kind      string             `json:"kind"`
	Readouts  *wireReadouts      `json:"readouts,omitempty"`
	Params    map[string]float64 `json:"params,omitempty"`
	Sweep     *wireSweep         `json:"sweep,omitempty"`
	Optimize  *wireOptimize      `json:"optimize,omitempty"`
	Noise     *wireNoise         `json:"noise,omitempty"`
	Options   wireOptions        `json:"options"`
	TimeoutMS int64              `json:"timeout_ms,omitempty"`
}

// wireSweep is the kind-"sweep" binding grid:
//
//	"sweep": {"bindings": [{"gamma": 0.1, "beta": 0.2}, …]}
//	"sweep": {"grid": {"gamma": [0.1, 0.2], "beta": [0.3, 0.4]}}        // cartesian
//	"sweep": {"grid": {"gamma": [...], "beta": [...]}, "zip": true}     // zipped columns
type wireSweep struct {
	Bindings []map[string]float64 `json:"bindings,omitempty"`
	Grid     map[string][]float64 `json:"grid,omitempty"`
	Zip      bool                 `json:"zip,omitempty"`
}

// wireOptimize is the kind-"optimize" spec: the objective (weighted Pauli
// observables, summed), the optimizer and its knobs.
type wireOptimize struct {
	Observables  []wireObservable   `json:"observables"`
	Method       string             `json:"method,omitempty"` // "spsa" (default) or "nelder-mead"
	Init         map[string]float64 `json:"init,omitempty"`
	MaxIters     int                `json:"max_iters,omitempty"`
	Seed         int64              `json:"seed,omitempty"`
	A            float64            `json:"a,omitempty"`
	C            float64            `json:"c,omitempty"`
	Tol          float64            `json:"tol,omitempty"`
	Trajectories int                `json:"trajectories,omitempty"`
}

// wireReadouts is the kind-"run" multi-readout spec:
//
//	"readouts": {
//	  "shots": 1000, "seed": 7,
//	  "marginals": [[0, 1]],
//	  "observables": [
//	    {"name": "zz01", "coeff": -1.0, "paulis": "ZZ", "qubits": [0, 1]},
//	    {"name": "x2", "paulis": "X", "qubits": [2]}
//	  ],
//	  "trajectories": 500
//	}
//
// Every listed read-out is answered by the same single simulation (or, with
// a "noise" spec, the same trajectory ensemble). An omitted "coeff" means 1.
type wireReadouts struct {
	Statevector  bool             `json:"statevector,omitempty"`
	Shots        int              `json:"shots,omitempty"`
	Seed         int64            `json:"seed,omitempty"`
	Marginals    [][]int          `json:"marginals,omitempty"`
	Observables  []wireObservable `json:"observables,omitempty"`
	Trajectories int              `json:"trajectories,omitempty"`
	// TrajOffset/TrajTotal place this request's trajectories as the
	// contiguous global sub-range [traj_offset, traj_offset+trajectories)
	// of a traj_total-sized ensemble: per-trajectory RNG streams and the
	// shot split are keyed on the GLOBAL index, so a cluster coordinator
	// can fan one ensemble out across workers and merge bit-identically.
	TrajOffset int `json:"traj_offset,omitempty"`
	TrajTotal  int `json:"traj_total,omitempty"`
	// Moments asks the result to carry the per-chunk partial sums behind
	// the ensemble's mean ± stderr readouts (the deterministic cross-host
	// merge surface). Only effective-noise runs produce them.
	Moments bool `json:"moments,omitempty"`
}

// wireObservable is one weighted Pauli string (a Hamiltonian term). An
// omitted coeff means 1; an explicit 0 is rejected (the Go surface cannot
// represent "weight exactly zero" — drop the term instead).
type wireObservable struct {
	Name   string   `json:"name,omitempty"`
	Coeff  *float64 `json:"coeff,omitempty"`
	Paulis string   `json:"paulis"` // e.g. "XZY", one letter per qubit
	Qubits []int    `json:"qubits"`
}

func (w *wireReadouts) toSpec() (core.ReadoutSpec, error) {
	if w == nil {
		return core.ReadoutSpec{}, nil
	}
	spec := core.ReadoutSpec{
		Statevector: w.Statevector, Shots: w.Shots, Seed: w.Seed,
		Marginals: w.Marginals, Trajectories: w.Trajectories,
		TrajOffset: w.TrajOffset, TrajTotal: w.TrajTotal,
		Moments: w.Moments,
	}
	obs, err := toObservables(w.Observables)
	if err != nil {
		return spec, fmt.Errorf("readouts: %w", err)
	}
	spec.Observables = obs
	return spec, nil
}

// toObservables converts wire observables, rejecting explicit zero
// coefficients (an omitted coeff means 1).
func toObservables(wobs []wireObservable) ([]core.Observable, error) {
	var out []core.Observable
	for i, ob := range wobs {
		coeff := 0.0 // core zero value = unweighted (1)
		if ob.Coeff != nil {
			if *ob.Coeff == 0 {
				return nil, fmt.Errorf("observable %d has coeff 0, which always contributes nothing — drop the term (or omit coeff for weight 1)", i)
			}
			coeff = *ob.Coeff
		}
		out = append(out, core.Observable{
			Name: ob.Name, Coeff: coeff, Paulis: ob.Paulis, Qubits: ob.Qubits,
		})
	}
	return out, nil
}

// wireNoise is the JSON noise-model spec:
//
//	"noise": {
//	  "rules": [
//	    {"channel": "depolarizing", "p": 0.01},
//	    {"channel": "amplitude_damping", "p": 0.002, "gates": ["cx"]},
//	    {"channel": "bit_flip", "p": 0.01, "qubits": [0, 1]}
//	  ],
//	  "readout": {"p01": 0.01, "p10": 0.02}
//	}
//
// Channel probabilities, readout probabilities and rule qubits are bounds-
// checked here (and again by the service), so a bad model is a 400 at
// submit, mirroring the readout-spec validation.
type wireNoise struct {
	Rules   []wireNoiseRule `json:"rules,omitempty"`
	Readout *wireReadout    `json:"readout,omitempty"`
}

// wireNoiseRule is one channel attachment.
type wireNoiseRule struct {
	Channel string   `json:"channel"`          // depolarizing, bit_flip, phase_flip, amplitude_damping, phase_damping, depolarizing2
	P       float64  `json:"p"`                // error probability / damping rate in [0,1]
	Gates   []string `json:"gates,omitempty"`  // restrict to these gate names
	Qubits  []int    `json:"qubits,omitempty"` // restrict to these qubits
}

// wireReadout is the classical measurement-error spec.
type wireReadout struct {
	P01 float64 `json:"p01"` // P(read 1 | true 0)
	P10 float64 `json:"p10"` // P(read 0 | true 1)
}

// toModel validates the wire spec and builds the noise model.
func (w *wireNoise) toModel() (*noise.Model, error) {
	if w == nil {
		return nil, nil
	}
	m := &noise.Model{}
	for i, r := range w.Rules {
		if r.P < 0 || r.P > 1 || math.IsNaN(r.P) {
			return nil, fmt.Errorf("noise rule %d: p=%g out of [0,1]", i, r.P)
		}
		ch, err := noise.NewChannel(r.Channel, r.P)
		if err != nil {
			return nil, fmt.Errorf("noise rule %d: %w", i, err)
		}
		m.AddRule(noise.Rule{Channel: ch, Gates: r.Gates, Qubits: r.Qubits})
	}
	if w.Readout != nil {
		for _, p := range []float64{w.Readout.P01, w.Readout.P10} {
			if p < 0 || p > 1 || math.IsNaN(p) {
				return nil, fmt.Errorf("noise readout: probability %g out of [0,1]", p)
			}
		}
		m.WithReadout(w.Readout.P01, w.Readout.P10)
	}
	return m, nil
}

// wireOptions mirrors the semantically relevant core.Options fields.
type wireOptions struct {
	Backend       string `json:"backend,omitempty"` // "flat", "hier", "dist", "baseline", "dm" ("" = by rank count)
	Strategy      string `json:"strategy,omitempty"`
	Lm            int    `json:"lm,omitempty"`
	Ranks         int    `json:"ranks,omitempty"`
	SecondLevelLm int    `json:"second_level_lm,omitempty"`
	Workers       int    `json:"workers,omitempty"`
	Fuse          string `json:"fuse,omitempty"` // "auto" (default), "on", "off"
	MaxFuseQubits int    `json:"max_fuse_qubits,omitempty"`
	Seed          int64  `json:"seed,omitempty"`
}

func (o wireOptions) toCore() (core.Options, error) {
	out := core.Options{
		Backend:  o.Backend,
		Strategy: o.Strategy, Lm: o.Lm, Ranks: o.Ranks,
		SecondLevelLm: o.SecondLevelLm, Workers: o.Workers,
		MaxFuseQubits: o.MaxFuseQubits, Seed: o.Seed,
		NoFuse: o.Fuse == "off",
	}
	switch o.Fuse {
	case "", "auto", "on", "off":
	default:
		return out, fmt.Errorf("unknown fuse policy %q (want auto, on or off)", o.Fuse)
	}
	if err := fuse.CheckMaxQubits(o.MaxFuseQubits); err != nil {
		return out, fmt.Errorf("max_fuse_qubits: %w", err)
	}
	return out, nil
}

func (w wireRequest) toRequest() (Request, error) {
	var req Request
	// The kind is checked before the circuit is built, so a request for a
	// kind that does not exist fails fast — at a coordinator too, which
	// parses bodies through here before routing them.
	req.Kind = Kind(w.Kind)
	if err := checkKind(req.Kind); err != nil {
		return req, err
	}
	switch {
	case w.Circuit.QASM != "" && w.Circuit.Family != "":
		return req, errors.New("circuit: give either qasm or family, not both")
	case w.Circuit.QASM != "":
		c, err := qasm.ParseToCircuit(w.Circuit.QASM)
		if err != nil {
			return req, err
		}
		req.Circuit = c
	case w.Circuit.Family != "":
		c, err := circuit.Named(w.Circuit.Family, w.Circuit.Qubits)
		if err != nil {
			return req, err
		}
		req.Circuit = c
	default:
		return req, errors.New("circuit: missing (give qasm or family+qubits)")
	}
	opts, err := w.Options.toCore()
	if err != nil {
		return req, err
	}
	model, err := w.Noise.toModel()
	if err != nil {
		return req, err
	}
	spec, err := w.Readouts.toSpec()
	if err != nil {
		return req, err
	}
	req.Readouts = spec
	req.Params = w.Params
	if w.Sweep != nil {
		req.Sweep = &SweepSpec{Bindings: w.Sweep.Bindings, Grid: w.Sweep.Grid, Zip: w.Sweep.Zip}
	}
	if w.Optimize != nil {
		obs, err := toObservables(w.Optimize.Observables)
		if err != nil {
			return req, fmt.Errorf("optimize: %w", err)
		}
		req.Optimize = &core.OptimizeSpec{
			Observables: obs, Method: w.Optimize.Method, Init: w.Optimize.Init,
			MaxIters: w.Optimize.MaxIters, Seed: w.Optimize.Seed,
			A: w.Optimize.A, C: w.Optimize.C, Tol: w.Optimize.Tol,
			Trajectories: w.Optimize.Trajectories,
		}
	}
	req.Noise = model
	req.Options = opts
	req.Timeout = time.Duration(w.TimeoutMS) * time.Millisecond
	return req, nil
}

// wireJob is the poll/cancel response body. Backend is the executing
// engine (absent while the job is queued).
type wireJob struct {
	ID        string      `json:"id"`
	Kind      string      `json:"kind"`
	Status    string      `json:"status"`
	Backend   string      `json:"backend,omitempty"`
	Error     string      `json:"error,omitempty"`
	Submitted time.Time   `json:"submitted"`
	Started   *time.Time  `json:"started,omitempty"`
	Finished  *time.Time  `json:"finished,omitempty"`
	Result    *wireResult `json:"result,omitempty"`
}

// wireResult is the result body; only the fields the kind and its
// read-out spec produce are populated.
type wireResult struct {
	Kind         string         `json:"kind"`
	NumQubits    int            `json:"num_qubits"`
	CacheHit     bool           `json:"cache_hit"`
	Parts        int            `json:"parts"`
	ElapsedMS    float64        `json:"elapsed_ms"`
	WaitedMS     float64        `json:"waited_ms"`
	Backend      string         `json:"backend,omitempty"`
	Samples      []int          `json:"samples,omitempty"`
	Counts       map[string]int `json:"counts,omitempty"`
	Trajectories int            `json:"trajectories,omitempty"`
	Marginals    [][]float64    `json:"marginals,omitempty"`
	Observables  []wireObsValue `json:"observables,omitempty"`
	Amplitudes   [][2]float64   `json:"amplitudes,omitempty"`
	// Sweep and Optimize are the v3 payloads (kinds "sweep"/"optimize").
	Sweep    *wireSweepResult    `json:"sweep,omitempty"`
	Optimize *wireOptimizeResult `json:"optimize,omitempty"`
	// Moments is the optional kind-"run" merge surface ("readouts":
	// {"moments": true} on an effective-noise ensemble): per-chunk partial
	// sums behind the mean ± stderr readouts, in chunk order.
	Moments *wireMoments `json:"moments,omitempty"`
}

// wireMoments carries the per-chunk partial sums a cluster coordinator
// folds with the canonical chunked reduction to reproduce single-node
// statistics bit-for-bit. Floats survive the JSON round trip exactly
// (encoding/json emits the shortest representation that parses back to
// the same float64).
type wireMoments struct {
	ChunkSize int               `json:"chunk_size"`
	Chunks    []wireMomentChunk `json:"chunks"`
}

// wireMomentChunk is one chunk's partials: [sum, sum-of-squares] per
// observable (readout-spec order) and per-entry probability sums per
// marginal.
type wireMomentChunk struct {
	Chunk int          `json:"chunk"`
	Count int          `json:"count"`
	Obs   [][2]float64 `json:"obs,omitempty"`
	Marg  [][]float64  `json:"marg,omitempty"`
}

// wireSweepResult is the kind-"sweep" payload: the compile-amortization
// ledger plus one readout set per grid point, in request order.
type wireSweepResult struct {
	Compiles      int              `json:"compiles"`
	TouchedBlocks int              `json:"touched_blocks"`
	SharedBlocks  int              `json:"shared_blocks"`
	Trajectories  int              `json:"trajectories,omitempty"`
	Points        []wireSweepPoint `json:"points"`
}

// wireSweepPoint is one evaluated grid point.
type wireSweepPoint struct {
	Params      map[string]float64 `json:"params"`
	Samples     []int              `json:"samples,omitempty"`
	Counts      map[string]int     `json:"counts,omitempty"`
	Marginals   [][]float64        `json:"marginals,omitempty"`
	Observables []wireObsValue     `json:"observables,omitempty"`
	Amplitudes  [][2]float64       `json:"amplitudes,omitempty"`
}

// wireOptimizeResult is the kind-"optimize" payload: the best binding and
// its objective, plus the per-iteration trace.
type wireOptimizeResult struct {
	Method       string             `json:"method"`
	Best         map[string]float64 `json:"best"`
	BestValue    float64            `json:"best_value"`
	Evaluations  int                `json:"evaluations"`
	Compiles     int                `json:"compiles"`
	Converged    bool               `json:"converged"`
	Trajectories int                `json:"trajectories,omitempty"`
	Trace        []wireOptIter      `json:"trace,omitempty"`
}

// wireOptIter is one optimization trace entry.
type wireOptIter struct {
	Iter   int                `json:"iter"`
	Params map[string]float64 `json:"params"`
	Value  float64            `json:"value"`
}

// wireObsValue is one evaluated observable.
type wireObsValue struct {
	Name   string  `json:"name,omitempty"`
	Value  float64 `json:"value"`
	StdErr float64 `json:"stderr,omitempty"`
}

func toWireJob(info JobInfo) wireJob {
	out := wireJob{
		ID: info.ID, Kind: string(info.Kind), Status: string(info.Status),
		Backend: info.Backend, Error: info.Err, Submitted: info.Submitted,
	}
	if !info.Started.IsZero() {
		t := info.Started
		out.Started = &t
	}
	if !info.Finished.IsZero() {
		t := info.Finished
		out.Finished = &t
	}
	if info.Result != nil {
		out.Result = toWireResult(info.Result)
	}
	return out
}

func toWireResult(r *Result) *wireResult {
	out := &wireResult{
		Kind: string(r.Kind), NumQubits: r.NumQubits, CacheHit: r.CacheHit,
		Parts:     r.Parts,
		ElapsedMS: float64(r.Elapsed) / float64(time.Millisecond),
		WaitedMS:  float64(r.Waited) / float64(time.Millisecond),
		Backend:   r.Backend, Trajectories: r.Trajectories,
		Samples:     r.Samples,
		Counts:      wireCounts(r.Counts, r.NumQubits),
		Marginals:   r.Marginals,
		Observables: wireObsValues(r.Observables),
		Amplitudes:  wireAmplitudes(r.Amplitudes),
	}
	if len(r.Moments) > 0 {
		wm := &wireMoments{ChunkSize: noise.MomentChunk,
			Chunks: make([]wireMomentChunk, 0, len(r.Moments))}
		for _, m := range r.Moments {
			wm.Chunks = append(wm.Chunks, wireMomentChunk{
				Chunk: m.Chunk, Count: m.Count, Obs: m.Obs, Marg: m.Marg,
			})
		}
		out.Moments = wm
	}
	if r.Sweep != nil {
		ws := &wireSweepResult{
			Compiles: r.Sweep.Compiles, TouchedBlocks: r.Sweep.TouchedBlocks,
			SharedBlocks: r.Sweep.SharedBlocks, Trajectories: r.Sweep.Trajectories,
			Points: make([]wireSweepPoint, 0, len(r.Sweep.Points)),
		}
		for _, p := range r.Sweep.Points {
			ws.Points = append(ws.Points, toWireSweepPoint(p, r.NumQubits))
		}
		out.Sweep = ws
	}
	if r.Optimize != nil {
		wo := &wireOptimizeResult{
			Method: r.Optimize.Method, Best: r.Optimize.Best, BestValue: r.Optimize.BestValue,
			Evaluations: r.Optimize.Evaluations, Compiles: r.Optimize.Compiles,
			Converged: r.Optimize.Converged, Trajectories: r.Optimize.Trajectories,
		}
		for _, it := range r.Optimize.Trace {
			wo.Trace = append(wo.Trace, wireOptIter{Iter: it.Iter, Params: it.Params, Value: it.Value})
		}
		out.Optimize = wo
	}
	return out
}

// toWireSweepPoint renders one grid point's read-outs (bitstring count
// keys and [re, im] amplitudes, matching the kind-"run" conventions).
func toWireSweepPoint(p core.SweepPoint, n int) wireSweepPoint {
	out := wireSweepPoint{Params: p.Binding}
	if ro := p.Readouts; ro != nil {
		out.Samples = ro.Samples
		out.Counts = wireCounts(ro.Counts, n)
		out.Marginals = ro.Marginals
		out.Observables = wireObsValues(ro.Observables)
		out.Amplitudes = wireAmplitudes(ro.Amplitudes)
	}
	return out
}

// wireCounts keys a histogram by bitstring (nil stays nil).
func wireCounts(counts map[int]int, n int) map[string]int {
	if counts == nil {
		return nil
	}
	out := make(map[string]int, len(counts))
	for basis, c := range counts {
		out[bitstring(basis, n)] = c
	}
	return out
}

func wireObsValues(vals []core.ObservableValue) []wireObsValue {
	var out []wireObsValue
	for _, ov := range vals {
		out = append(out, wireObsValue{Name: ov.Name, Value: ov.Value, StdErr: ov.StdErr})
	}
	return out
}

// wireAmplitudes renders amplitudes as [re, im] pairs (nil stays nil).
func wireAmplitudes(amps []complex128) [][2]float64 {
	if amps == nil {
		return nil
	}
	out := make([][2]float64, len(amps))
	for i, a := range amps {
		out[i] = [2]float64{real(a), imag(a)}
	}
	return out
}

// bitstring renders a basis index with qubit n−1 leftmost (the usual ket
// convention; qubit 0 is the least-significant bit of the index).
func bitstring(basis, n int) string {
	if n <= 0 {
		return strconv.Itoa(basis)
	}
	b := make([]byte, n)
	for i := 0; i < n; i++ {
		b[n-1-i] = byte('0' + (basis>>uint(i))&1)
	}
	return string(b)
}

func handleSubmit(s *Service, w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	req, err := decodeRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// When the handler is mounted without obs.InstrumentHTTP (embedded
	// use, tests), honor the propagation headers directly so a cluster
	// coordinator's X-Request-ID / X-Parent-Span still reach the job.
	ctx := r.Context()
	if obs.RequestID(ctx) == "" {
		if rid := r.Header.Get("X-Request-ID"); rid != "" {
			ctx = obs.WithRequestID(ctx, rid)
		}
	}
	if obs.ParentSpan(ctx) == "" {
		if span := r.Header.Get(obs.ParentSpanHeader); span != "" {
			ctx = obs.WithParentSpan(ctx, span)
		}
	}
	id, err := s.SubmitContext(ctx, req)
	switch {
	case errors.Is(err, ErrQueueFull):
		// Admission control, not failure: tell the client when to come
		// back. The cluster coordinator parses this when dispatching
		// sub-jobs and backs the worker off for that long.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "status": string(StatusQueued)})
}

func handleJob(s *Service, w http.ResponseWriter, r *http.Request) {
	info, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, toWireJob(info))
}

// handleResult long-polls: it waits up to ?wait (default 30s, capped at
// 5m) for the job to finish. A job still running at the deadline yields
// 202 with the snapshot, so clients can re-arm the poll without treating
// it as an error.
func handleResult(s *Service, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	wait := 30 * time.Second
	if raw := r.URL.Query().Get("wait"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad wait %q: %w", raw, err))
			return
		}
		wait = min(max(d, 0), 5*time.Minute)
	}
	ctx, cancel := context.WithTimeout(r.Context(), wait)
	defer cancel()
	res, werr := s.Wait(ctx, id)
	if errors.Is(werr, ErrNotFound) {
		writeError(w, http.StatusNotFound, werr)
		return
	}
	info, jerr := s.Job(id)
	switch {
	case jerr == nil:
		code := http.StatusOK
		if !info.Status.Terminal() {
			code = http.StatusAccepted // still running: client re-arms the poll
		}
		writeJSON(w, code, toWireJob(info))
	case werr == nil:
		// Retention evicted the job between Wait and Job — serve the
		// result Wait already handed us rather than 404ing a success.
		writeJSON(w, http.StatusOK, wireJob{
			ID: id, Kind: string(res.Kind), Status: string(StatusDone),
			Result: toWireResult(res),
		})
	case ctx.Err() != nil:
		// Our long-poll timer expired and the job is gone: truly unknown.
		writeError(w, http.StatusNotFound, ErrNotFound)
	default:
		// Evicted terminal failure/cancel: synthesize the snapshot.
		status := StatusFailed
		if errors.Is(werr, context.Canceled) || errors.Is(werr, context.DeadlineExceeded) {
			status = StatusCanceled
		}
		writeJSON(w, http.StatusOK, wireJob{ID: id, Status: string(status), Error: werr.Error()})
	}
}

// wireTrace is the GET /v1/jobs/{id}/trace body: the job's sequential
// stage spans. For terminal jobs the stage durations sum to wall_ms (the
// spans tile the submitted→finished window); live jobs include the open
// stage measured to now.
type wireTrace struct {
	ID         string      `json:"id"`
	Kind       string      `json:"kind"`
	Status     string      `json:"status"`
	RequestID  string      `json:"request_id,omitempty"`
	ParentSpan string      `json:"parent_span,omitempty"`
	Backend    string      `json:"backend,omitempty"`
	WallMS     float64     `json:"wall_ms"`
	Stages     []wireStage `json:"stages"`
}

// wireStage is one stage span: its offset from submit and its duration.
type wireStage struct {
	Stage      string  `json:"stage"`
	StartMS    float64 `json:"start_ms"`
	DurationMS float64 `json:"duration_ms"`
}

func handleTrace(s *Service, w http.ResponseWriter, r *http.Request) {
	info, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	wall := time.Since(info.Submitted)
	if !info.Finished.IsZero() {
		wall = info.Finished.Sub(info.Submitted)
	}
	out := wireTrace{
		ID: info.ID, Kind: string(info.Kind), Status: string(info.Status),
		RequestID: info.RequestID, ParentSpan: info.ParentSpan, Backend: info.Backend,
		WallMS: durationMS(wall),
		Stages: make([]wireStage, 0, len(info.Trace)),
	}
	for _, sp := range info.Trace {
		out.Stages = append(out.Stages, wireStage{
			Stage: sp.Name, StartMS: durationMS(sp.Start), DurationMS: durationMS(sp.Dur),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// wireProfile is the GET /v1/jobs/{id}/profile body: the job's kernel-level
// execution profile nested under its stage trace. window_ms sums the engine
// stages (simulate + trajectories) — the wall time the kernels could have
// been attributed to — and kernel_ms sums the attributed kernel rows.
// unattributed_ms = window_ms − kernel_ms is the engine time spent outside
// instrumented kernels (fusion compile, state allocation, scheduling); it
// goes NEGATIVE when trajectory workers > 1, because concurrent
// trajectories' kernel seconds sum while the stage clock does not.
type wireProfile struct {
	ID             string            `json:"id"`
	Kind           string            `json:"kind"`
	Status         string            `json:"status"`
	RequestID      string            `json:"request_id,omitempty"`
	ParentSpan     string            `json:"parent_span,omitempty"`
	Backend        string            `json:"backend,omitempty"`
	WallMS         float64           `json:"wall_ms"`
	WindowMS       float64           `json:"window_ms"`
	KernelMS       float64           `json:"kernel_ms"`
	UnattributedMS float64           `json:"unattributed_ms"`
	Stages         []wireStage       `json:"stages"`
	Kernels        []prof.KernelStat `json:"kernels"`
}

func handleProfile(s *Service, w http.ResponseWriter, r *http.Request) {
	info, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	wall := time.Since(info.Submitted)
	if !info.Finished.IsZero() {
		wall = info.Finished.Sub(info.Submitted)
	}
	out := wireProfile{
		ID: info.ID, Kind: string(info.Kind), Status: string(info.Status),
		RequestID: info.RequestID, ParentSpan: info.ParentSpan, Backend: info.Backend,
		WallMS:  durationMS(wall),
		Stages:  make([]wireStage, 0, len(info.Trace)),
		Kernels: info.Profile,
	}
	if out.Kernels == nil {
		out.Kernels = []prof.KernelStat{} // render [] rather than null
	}
	for _, sp := range info.Trace {
		out.Stages = append(out.Stages, wireStage{
			Stage: sp.Name, StartMS: durationMS(sp.Start), DurationMS: durationMS(sp.Dur),
		})
		if sp.Name == stageSimulate || sp.Name == stageTrajectories {
			out.WindowMS += durationMS(sp.Dur)
		}
	}
	for _, ks := range info.Profile {
		out.KernelMS += ks.Seconds * 1e3
	}
	out.UnattributedMS = out.WindowMS - out.KernelMS
	writeJSON(w, http.StatusOK, out)
}

func durationMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func handleCancel(s *Service, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.Cancel(id); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	info, err := s.Job(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, toWireJob(info))
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
