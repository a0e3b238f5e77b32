package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"hisvsim/internal/circuit"
	"hisvsim/internal/core"
	"hisvsim/internal/dag"
	"hisvsim/internal/fuse"
	"hisvsim/internal/gate"
	"hisvsim/internal/hier"
	"hisvsim/internal/noise"
	"hisvsim/internal/partition"
	"hisvsim/internal/prof"
	"hisvsim/internal/qasm"
	"hisvsim/internal/service"
	"hisvsim/internal/sv"
)

// perLayer lists every per-layer metric a traced run prints in its final
// line, with its unit (BENCHMARK.json per_layer, same order). Array sizes
// behind the sv rows: 20q = 16 MiB, 12q = 64 KiB.
var perLayer = [][2]string{
	{"qasm.parse_ms", "ms"},
	{"circuit.fingerprint_us", "us"},
	{"partition.plan_ms", "ms"},
	{"partition.parts", "count"},
	{"partition.sweeps", "count"},
	{"partition.bytes_moved", "B"},
	{"fuse.compile_ms", "ms"},
	{"fuse.blocks", "count"},
	{"fuse.dense_blocks.k1", "count"},
	{"fuse.dense_blocks.k2", "count"},
	{"fuse.dense_blocks.k3", "count"},
	{"fuse.dense_blocks.k4", "count"},
	{"fuse.dense_blocks.k5", "count"},
	{"fuse.diag_blocks", "count"},
	{"hier.execute_ms", "ms"},
	{"hier.self_ms", "ms"},
	{"sv.dense_k1_ns_per_amp.20q", "ns/amp"},
	{"sv.dense_k2_ns_per_amp.20q", "ns/amp"},
	{"sv.dense_k3_ns_per_amp.20q", "ns/amp"},
	{"sv.dense_k4_ns_per_amp.20q", "ns/amp"},
	{"sv.dense_k5_ns_per_amp.20q", "ns/amp"},
	{"sv.diag_ns_per_amp.20q", "ns/amp"},
	{"sv.dense_k1_ns_per_amp.12q", "ns/amp"},
	{"sv.dense_k2_ns_per_amp.12q", "ns/amp"},
	{"sv.dense_k3_ns_per_amp.12q", "ns/amp"},
	{"sv.dense_k4_ns_per_amp.12q", "ns/amp"},
	{"sv.dense_k5_ns_per_amp.12q", "ns/amp"},
	{"sv.diag_ns_per_amp.12q", "ns/amp"},
	{"sv.kraus1_ns_per_amp.12q", "ns/amp"},
	{"sv.copy_ns_per_amp", "ns/amp"},
	{"sv.dense_k3_roofline_frac", "frac"},
	{"sv.sample_us", "us"},
	{"sv.expect_us", "us"},
	{"core.evaluate_ms", "ms"},
	{"service.parse_request_us", "us"},
	{"service.do_ms", "ms"},
	{"service.http_overhead_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.compile_ms", "ms"},
	{"service.simulate_ms", "ms"},
	{"service.sample_ms", "ms"},
	{"service.unattributed_ms", "ms"},
	{"service.cache_hit_ratio", "frac"},
	{"service.simulations", "count"},
	{"service.rejected", "count"},
	{"noise.compile_ms", "ms"},
	{"noise.traj_ms", "ms"},
	{"noise.ensemble_ms", "ms"},
	{"noise.merge_us", "us"},
	{"core.sweep_ms", "ms"},
	{"dm.evolve_ms", "ms"},
	{"cluster.overhead_ms", "ms"},
	{"cluster.subjobs", "count"},
	{"cluster.retries", "count"},
	{"cluster.attempts_per_subjob", "count"},
	{"trace.overhead_frac", "frac"},
}

func perLayerNames() []string {
	out := make([]string, len(perLayer))
	for i, m := range perLayer {
		out[i] = m[0]
	}
	return out
}

func unitOf(name string) string {
	for _, m := range perLayer {
		if m[0] == name {
			return m[1]
		}
	}
	panic("perfbench: no per-layer metric " + name)
}

// setSpans reports the median duration of the spans called span, scaled
// from ms to the metric's unit.
func setSpans(res *result, rec *recorder, name, spanName string) {
	d := rec.durations(spanName)
	scale := 1.0
	if unitOf(name) == "us" {
		scale = 1e3
	}
	res.set(name, median(d)*scale, unitOf(name), len(d))
}

// ---- service layer, from the traced window -------------------------------

// stageTrace is a GET /v1/jobs/{id}/trace body; coordinator traces also
// carry the stitched worker traces of every sub-job attempt.
type stageTrace struct {
	WallMS  float64 `json:"wall_ms"`
	Stages  []stage `json:"stages"`
	SubJobs []struct {
		Worker   string `json:"worker"`
		Attempts []struct {
			Outcome     string      `json:"outcome"`
			WorkerTrace *stageTrace `json:"worker_trace"`
		} `json:"attempts"`
	} `json:"subjobs"`
}

type stage struct {
	Stage      string  `json:"stage"`
	DurationMS float64 `json:"duration_ms"`
}

// serviceStages picks the trace that timed the service's own stages: the
// job itself, or under a coordinator the slowest delivered sub-job (the
// one on the result's critical path).
func serviceStages(t *stageTrace) *stageTrace {
	if len(t.SubJobs) == 0 {
		return t
	}
	var worst *stageTrace
	for _, sj := range t.SubJobs {
		for _, a := range sj.Attempts {
			if a.Outcome == "ok" && a.WorkerTrace != nil && (worst == nil || a.WorkerTrace.WallMS > worst.WallMS) {
				worst = a.WorkerTrace
			}
		}
	}
	return worst
}

// serviceLayer derives the service metrics of the traced window: stage
// medians from each job's stage trace, cache and simulation counters from
// Stats() deltas, and refusals from every listener's /metrics.
func serviceLayer(ctx context.Context, res *result, f *fleet, traced []outcome, before, after service.Stats) error {
	groups := map[string][]string{
		"service.queue_wait_ms": {"queue_wait"},
		"service.compile_ms":    {"compile", "specialize"},
		"service.simulate_ms":   {"simulate", "trajectories"},
		"service.sample_ms":     {"sample"},
	}
	vals := map[string][]float64{}
	for _, o := range traced {
		if o.stage == nil {
			continue
		}
		var t stageTrace
		if err := json.Unmarshal(o.stage, &t); err != nil {
			return fmt.Errorf("stage trace %s: %w", o.req.ID, err)
		}
		st := serviceStages(&t)
		if st == nil {
			continue
		}
		attributed := 0.0
		for name, stages := range groups {
			sum := 0.0
			for _, s := range st.Stages {
				for _, want := range stages {
					if s.Stage == want {
						sum += s.DurationMS
					}
				}
			}
			attributed += sum
			vals[name] = append(vals[name], sum)
		}
		vals["service.unattributed_ms"] = append(vals["service.unattributed_ms"], st.WallMS-attributed)
	}
	for name, v := range vals {
		res.set(name, median(v), "ms", len(v))
	}
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	res.set("service.cache_hit_ratio", ratio, "frac", int(hits+misses))
	res.set("service.simulations", float64(after.Simulations-before.Simulations), "count", 1)
	refused, err := f.refusals(ctx)
	if err != nil {
		return err
	}
	res.set("service.rejected", float64(refused), "count", 1)
	return nil
}

// ---- layer probes ----------------------------------------------------------

// probeLayers times direct calls into each layer's public functions on
// inputs drawn from the workload each layer maps to (same seed), so every
// traced run reports every per-layer metric.
func probeLayers(ctx context.Context, res *result, seed int64, rec *recorder) error {
	for _, p := range []func(context.Context, *result, int64, *recorder) error{
		probeCold, probeHot, probeNoise, probeCluster, probeKernels,
	} {
		if err := p(ctx, res, seed, rec); err != nil {
			return err
		}
	}
	return nil
}

// probeCold walks six cold-wide circuits (every family × lm pairing)
// through qasm → partition (dagp, Lm = 15) → fuse → hier (one worker),
// then times the
// whole request in-process with core.EvaluateContext. Plan and fusion
// counts are exact totals over the six circuits; bytes are computed.
func probeCold(ctx context.Context, res *result, seed int64, rec *recorder) error {
	strat, err := core.NewStrategy("dagp", 0)
	if err != nil {
		return err
	}
	var parts, sweeps, bytes, blocks, diag int64
	dense := make([]int64, fuse.DefaultMaxQubits+1)
	var selfMS []float64
	for _, r := range coldWide(seed, 6) {
		root := rec.start("probe.cold", r.ID, 0)
		var c *circuit.Circuit
		var pl *partition.Plan
		var bl []fuse.Block
		steps := []struct {
			name string
			fn   func() error
		}{
			{"qasm.ParseToCircuit", func() (err error) { c, err = qasm.ParseToCircuit(r.qasm); return err }},
			{"partition.Partition", func() (err error) { pl, err = strat.Partition(dag.FromCircuit(c), 15); return err }},
			{"fuse.Fuse+Plan", func() (err error) {
				bl, err = fuse.Fuse(c.Gates, fuse.Options{})
				fuse.Plan(bl, c.NumQubits)
				return err
			}},
		}
		for _, s := range steps {
			if err := rec.timed(s.name, r.ID, root, s.fn); err != nil {
				return fmt.Errorf("%s %s: %w", s.name, r.ID, err)
			}
		}
		pm := partition.ComputeMetrics(pl)
		parts += int64(pm.Parts)
		for _, p := range pl.Parts {
			sweeps += int64(1) << uint(c.NumQubits-p.WorkingSetSize())
			bytes += int64(2*16) << uint(c.NumQubits) // gather + scatter of every amplitude
		}
		for _, b := range bl {
			switch b.Kind {
			case fuse.Dense:
				dense[len(b.Qubits)]++
			case fuse.Diagonal:
				diag++
			}
		}
		blocks += int64(len(bl))

		// One worker, so the kernel seconds and the execute wall time
		// share one clock and their difference is hier's own time.
		pr := prof.NewRecorder()
		st := sv.NewState(c.NumQubits)
		st.Prof, st.Workers = pr, 1
		id := rec.start("hier.ExecutePlan", r.ID, root)
		t0 := time.Now()
		_, err := hier.ExecutePlan(pl, st, hier.Options{Ctx: prof.WithRecorder(ctx, pr), Fuse: true, Workers: 1})
		execMS := float64(time.Since(t0).Nanoseconds()) / 1e6
		rec.end(id)
		if err != nil {
			return err
		}
		selfMS = append(selfMS, execMS-pr.Seconds()*1e3)

		if err := rec.timed("core.EvaluateContext", r.ID, root, func() error {
			_, err := core.EvaluateContext(ctx, c, r.opts, r.spec)
			return err
		}); err != nil {
			return err
		}
		rec.end(root)
	}
	setSpans(res, rec, "qasm.parse_ms", "qasm.ParseToCircuit")
	setSpans(res, rec, "partition.plan_ms", "partition.Partition")
	setSpans(res, rec, "fuse.compile_ms", "fuse.Fuse+Plan")
	setSpans(res, rec, "hier.execute_ms", "hier.ExecutePlan")
	setSpans(res, rec, "core.evaluate_ms", "core.EvaluateContext")
	res.set("hier.self_ms", median(selfMS), "ms", len(selfMS))
	res.set("partition.parts", float64(parts), "count", 6)
	res.set("partition.sweeps", float64(sweeps), "count", 6)
	res.set("partition.bytes_moved", float64(bytes), "B", 6)
	res.set("fuse.blocks", float64(blocks), "count", 6)
	for k := 1; k <= fuse.DefaultMaxQubits; k++ {
		res.set(fmt.Sprintf("fuse.dense_blocks.k%d", k), float64(dense[k]), "count", 6)
	}
	res.set("fuse.diag_blocks", float64(diag), "count", 6)
	return nil
}

// probeHot replays 64 hot-mix requests against a freshly warmed service:
// fingerprint, request parsing, Service.Do without HTTP and the same
// request over HTTP, then the sampler and Pauli kernels on the catalogue
// circuit's reference state.
func probeHot(ctx context.Context, res *result, seed int64, rec *recorder) error {
	f, err := bootFleet(ctx, false)
	if err != nil {
		return err
	}
	defer f.close()
	for _, r := range hotWarmup(seed) {
		if o := send(ctx, f, r, nil); o.err != nil {
			return o.err
		}
	}
	k := newChecker()
	for _, r := range hotMix(seed, 64) {
		root := rec.start("probe.hot", r.ID, 0)
		var parsed *service.Request
		steps := []struct {
			name string
			fn   func() error
		}{
			{"circuit.Fingerprint", func() error { _ = r.circ.Fingerprint(); return nil }},
			{"service.ParseRequest", func() (err error) { parsed, err = service.ParseRequest(r.Body); return err }},
			{"service.Do", func() error { _, err := f.services[0].Do(ctx, *parsed); return err }},
			{"http.run", func() error { _, _, err := f.client.submitWait(ctx, f.URL, r.Body, nil, "", 0); return err }},
		}
		for _, s := range steps {
			if err := rec.timed(s.name, r.ID, root, s.fn); err != nil {
				return fmt.Errorf("%s %s: %w", s.name, r.ID, err)
			}
		}
		ref, err := k.reference(ctx, r.circ)
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(r.spec.Seed))
		rec.timed("sv.Sampler.Counts", r.ID, root, func() error { ref.sampler.Counts(r.spec.Shots, rng); return nil })
		for _, ob := range r.spec.Observables {
			ps := sv.PauliString{Coeff: ob.Coeff, Ops: ob.Paulis, Qubits: ob.Qubits}
			rec.timed("sv.ExpectationPauliString", r.ID, root, func() error { ref.st.ExpectationPauliString(ps); return nil })
		}
		rec.end(root)
	}
	setSpans(res, rec, "circuit.fingerprint_us", "circuit.Fingerprint")
	setSpans(res, rec, "service.parse_request_us", "service.ParseRequest")
	setSpans(res, rec, "service.do_ms", "service.Do")
	setSpans(res, rec, "sv.sample_us", "sv.Sampler.Counts")
	setSpans(res, rec, "sv.expect_us", "sv.ExpectationPauliString")
	httpMS := rec.durations("http.run")
	res.set("service.http_overhead_ms", median(httpMS)-res.Metrics["service.do_ms"].Value, "ms", len(httpMS))
	return nil
}

// probeNoise times the trajectory engine on the first noisy-fleet ising
// ensemble (compile, single trajectories, the full 512-trajectory
// ensemble, and the merge of its two halves, which must equal the full
// run bit for bit), the first sweep through core.SweepContext and the
// first exact dm job through core.EvaluateContext.
func probeNoise(ctx context.Context, res *result, seed int64, rec *recorder) error {
	reqs := noisyFleet(seed, len(noisyCycle))
	ens, sweep, dmReq := reqs[2], reqs[1], reqs[7]
	var plan *noise.Plan
	for i := 0; i < 3; i++ {
		if err := rec.timed("noise.Compile", ens.ID, 0, func() (err error) {
			plan, err = noise.Compile(ens.circ, ens.opts.Noise, noise.CompileOptions{Fuse: true})
			return err
		}); err != nil {
			return err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 32; i++ {
		if err := rec.timed("noise.Plan.RunTrajectory", ens.ID, 0, func() error {
			_, _, err := plan.RunTrajectory(rng)
			return err
		}); err != nil {
			return err
		}
	}
	cfg := ens.spec.NoisyRunConfig(0)
	var full *noise.Ensemble
	if err := rec.timed("noise.RunEnsemble", ens.ID, 0, func() (err error) {
		full, err = noise.RunEnsemble(ctx, plan, cfg)
		return err
	}); err != nil {
		return err
	}
	var halves []*noise.Ensemble
	for _, off := range []int{0, noisyTraj / 2} {
		part := cfg
		part.Offset, part.Total, part.Trajectories = off, noisyTraj, noisyTraj/2
		e, err := noise.RunEnsemble(ctx, plan, part)
		if err != nil {
			return err
		}
		halves = append(halves, e)
	}
	var merged *noise.Ensemble
	if err := rec.timed("noise.MergeEnsembles", ens.ID, 0, func() (err error) {
		merged, err = noise.MergeEnsembles(halves)
		return err
	}); err != nil {
		return err
	}
	n := ens.circ.NumQubits
	if d := sameBits(toAnswer(core.ReadoutsFromEnsemble(merged, ens.spec), n), toAnswer(core.ReadoutsFromEnsemble(full, ens.spec), n)); d != "" {
		res.Mismatches = append(res.Mismatches, "noise.MergeEnsembles halves vs full run: "+d)
	}
	tmpl, err := qasm.ParseToCircuit(sweep.qasm)
	if err != nil {
		return err
	}
	dmCirc, err := qasm.ParseToCircuit(dmReq.qasm)
	if err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		if err := rec.timed("core.SweepContext", sweep.ID, 0, func() error {
			_, err := core.SweepContext(ctx, tmpl, core.Options{}, sweep.spec, sweep.bindings)
			return err
		}); err != nil {
			return err
		}
		if err := rec.timed("core.EvaluateContext.dm", dmReq.ID, 0, func() error {
			_, err := core.EvaluateContext(ctx, dmCirc, dmReq.opts, dmReq.spec)
			return err
		}); err != nil {
			return err
		}
	}
	setSpans(res, rec, "noise.compile_ms", "noise.Compile")
	setSpans(res, rec, "noise.traj_ms", "noise.Plan.RunTrajectory")
	setSpans(res, rec, "noise.ensemble_ms", "noise.RunEnsemble")
	setSpans(res, rec, "noise.merge_us", "noise.MergeEnsembles")
	setSpans(res, rec, "core.sweep_ms", "core.SweepContext")
	setSpans(res, rec, "dm.evolve_ms", "core.EvaluateContext.dm")
	return nil
}

// probeCluster sends two noisy-fleet ising ensembles and one sweep through
// a fresh coordinator over two workers. For each ensemble it replays the
// coordinator's sub-ranges directly against the workers that ran them,
// all at once, and charges the coordinator with its latency minus the
// slowest direct sub-range. Sub-job counters come from the coordinator's
// /metrics, as deltas over the probe.
func probeCluster(ctx context.Context, res *result, seed int64, rec *recorder) error {
	f, err := bootFleet(ctx, true)
	if err != nil {
		return err
	}
	defer f.close()
	for _, r := range noisyWarmup(seed) {
		if o := send(ctx, f, r, nil); o.err != nil {
			return o.err
		}
	}
	coordURL := f.servers[len(f.servers)-1].URL
	before, err := clusterCounters(ctx, f.client, coordURL)
	if err != nil {
		return err
	}
	reqs := noisyFleet(seed, len(noisyCycle))
	var overhead []float64
	for _, r := range []*request{reqs[2], reqs[5], reqs[1]} {
		root := rec.start("probe.cluster", r.ID, 0)
		id := rec.start("cluster.job", r.ID, root)
		o := send(ctx, f, r, nil)
		rec.end(id)
		if o.err != nil {
			return o.err
		}
		if r.Class == "sweep" {
			rec.end(root)
			continue
		}
		_, body, err := f.client.get(ctx, coordURL+"/v1/jobs/"+o.jobID+"/trace")
		if err != nil {
			return err
		}
		var t stageTrace
		if err := json.Unmarshal(body, &t); err != nil {
			return err
		}
		slowest, err := replaySubRanges(ctx, f.client, r, &t, rec, root)
		if err != nil {
			return err
		}
		overhead = append(overhead, o.ms-slowest)
		rec.end(root)
	}
	after, err := clusterCounters(ctx, f.client, coordURL)
	if err != nil {
		return err
	}
	ok, failed, retried := after[0]-before[0], after[1]-before[1], after[2]-before[2]
	res.set("cluster.overhead_ms", median(overhead), "ms", len(overhead))
	res.set("cluster.subjobs", ok+failed, "count", 3)
	res.set("cluster.retries", after[3]-before[3], "count", 3)
	res.set("cluster.attempts_per_subjob", (ok+failed+retried)/math.Max(ok+failed, 1), "count", int(ok+failed))
	return nil
}

// replaySubRanges re-sends each sub-range of a split ensemble straight to
// the worker that ran it, concurrently, and returns the slowest one's
// submit → result time in ms.
func replaySubRanges(ctx context.Context, c *client, r *request, t *stageTrace, rec *recorder, parent int) (float64, error) {
	var wr wireRequest
	if err := json.Unmarshal(r.Body, &wr); err != nil {
		return 0, err
	}
	n := len(t.SubJobs)
	if n < 2 {
		return 0, fmt.Errorf("%s: coordinator did not split the ensemble (%d sub-jobs)", r.ID, n)
	}
	lat := make([]float64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, sj := range t.SubJobs {
		lo, hi := subRange(r.spec.Trajectories, n, i)
		sub := wr
		ro := *wr.Readouts
		ro.Trajectories, ro.TrajOffset, ro.TrajTotal, ro.Moments = hi-lo, lo, r.spec.Trajectories, true
		sub.Readouts = &ro
		body := mustJSON(sub)
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := rec.start("cluster.replay", r.ID, parent)
			t0 := time.Now()
			_, _, errs[i] = c.submitWait(ctx, sj.Worker, body, nil, "", 0)
			lat[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
			rec.end(id)
		}()
	}
	wg.Wait()
	slowest := 0.0
	for i := range lat {
		if errs[i] != nil {
			return 0, errs[i]
		}
		slowest = math.Max(slowest, lat[i])
	}
	return slowest, nil
}

// subRange is the coordinator's split of [0, total) into parts contiguous
// ranges whose inner boundaries sit on noise.MomentChunk multiples.
func subRange(total, parts, i int) (lo, hi int) {
	edge := func(j int) int {
		if j == parts {
			return total
		}
		return total * j / parts / noise.MomentChunk * noise.MomentChunk
	}
	return edge(i), edge(i + 1)
}

// clusterCounters reads the coordinator's sub-job outcomes (ok, failed,
// retried) and retries from its /metrics.
func clusterCounters(ctx context.Context, c *client, base string) ([4]float64, error) {
	var out [4]float64
	fams, err := c.metrics(ctx, base)
	if err != nil {
		return out, err
	}
	for _, fam := range fams {
		for _, s := range fam.Samples {
			switch {
			case s.Name == "hisvsim_cluster_subjobs_total" && s.Label("status") == "ok":
				out[0] += s.Value
			case s.Name == "hisvsim_cluster_subjobs_total" && s.Label("status") == "failed":
				out[1] += s.Value
			case s.Name == "hisvsim_cluster_subjobs_total" && s.Label("status") == "retried":
				out[2] += s.Value
			case s.Name == "hisvsim_cluster_retries_total":
				out[3] += s.Value
			}
		}
	}
	return out, nil
}

// probeKernels is the roofline probe: a streaming copy over an array of at
// least 4× the last-level cache, then every fused kernel class × width on
// one core at both workload sizes, 20 qubits (16 MiB, cold-wide) and 12
// qubits (64 KiB, noisy-fleet). Targets are the lowest k qubits; the
// diagonal row is a 2-qubit diagonal; kraus1 is Kraus1Norm2 on qubit 0.
func probeKernels(ctx context.Context, res *result, _ int64, rec *recorder) error {
	llc := res.Machine.LLCBytes
	if llc <= 0 {
		llc = 64 << 20
	}
	copyNS := probeCopy(rec, 4*llc)
	res.set("sv.copy_ns_per_amp", copyNS, "ns/amp", 3)
	res.Notes = append(res.Notes, fmt.Sprintf("sv.copy_ns_per_amp: array %d MiB, 4x the %d MiB last-level cache", 4*llc>>20, llc>>20))

	for _, n := range []int{20, 12} {
		calls := 1 // calls per timed batch: ≥ 1 ms per batch
		if n == 12 {
			calls = 100
		}
		st := sv.NewState(n)
		st.Workers = 1
		rng := rand.New(rand.NewSource(int64(n)))
		for i := range st.Amps {
			st.Amps[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		st.Normalize()
		suffix := fmt.Sprintf(".%dq", n)
		for k := 1; k <= fuse.DefaultMaxQubits; k++ {
			p := sv.PrepareFused(n, lowQubits(k))
			m := hadamards(k)
			ns := kernelNS(rec, fmt.Sprintf("sv.ApplyFusedPlan.k%d%s", k, suffix), st, calls, func() { st.ApplyFusedPlan(p, m) })
			res.set(fmt.Sprintf("sv.dense_k%d_ns_per_amp%s", k, suffix), ns, "ns/amp", 7)
		}
		p := sv.PrepareFused(n, lowQubits(2))
		d := []complex128{1, cmplx.Exp(0.3i), cmplx.Exp(0.7i), cmplx.Exp(1.1i)}
		res.set("sv.diag_ns_per_amp"+suffix, kernelNS(rec, "sv.ApplyFusedDiagonalPlan"+suffix, st, calls,
			func() { st.ApplyFusedDiagonalPlan(p, d) }), "ns/amp", 7)
		if n == 12 {
			k0 := gate.Matrix{K: 1, Data: []complex128{1, 0, 0, complex(math.Sqrt(1-0.002), 0)}}
			res.set("sv.kraus1_ns_per_amp.12q", kernelNS(rec, "sv.Kraus1Norm2.12q", st, calls,
				func() { st.Kraus1Norm2(0, k0) }), "ns/amp", 7)
		}
		res.Notes = append(res.Notes, fmt.Sprintf("sv rows %s: state of %d KiB, one core", suffix, 16<<n>>10))
	}
	res.set("sv.dense_k3_roofline_frac", copyNS/res.Metrics["sv.dense_k3_ns_per_amp.20q"].Value, "frac", 7)
	return nil
}

// kernelNS times 7 batches of calls kernel calls and returns the median
// ns per amplitude.
func kernelNS(rec *recorder, name string, st *sv.State, calls int, kernel func()) float64 {
	kernel() // warm the tables and the cache lines
	var per []float64
	for b := 0; b < 7; b++ {
		id := rec.start(name, "kernels", 0)
		t0 := time.Now()
		for c := 0; c < calls; c++ {
			kernel()
		}
		el := time.Since(t0)
		rec.end(id)
		per = append(per, float64(el.Nanoseconds())/float64(calls*len(st.Amps)))
	}
	return median(per)
}

// probeCopy streams one copy pass over a bytes-sized amplitude array
// (each amplitude read once and written once, as a fused kernel does),
// three times, and returns the median ns per amplitude. The array is
// released before returning.
func probeCopy(rec *recorder, bytes int64) float64 {
	a := make([]complex128, bytes/16)
	for i := range a {
		a[i] = complex(float64(i), 0)
	}
	var per []float64
	for rep := 0; rep < 3; rep++ {
		id := rec.start("copy", "kernels", 0)
		t0 := time.Now()
		copy(a[:len(a)-1], a[1:])
		el := time.Since(t0)
		rec.end(id)
		per = append(per, float64(el.Nanoseconds())/float64(len(a)-1))
	}
	a = nil
	runtime.GC()
	debug.FreeOSMemory()
	return median(per)
}

func lowQubits(k int) []int {
	qs := make([]int, k)
	for i := range qs {
		qs[i] = i
	}
	return qs
}

// hadamards is H^⊗k, a dense unitary with no zero entries.
func hadamards(k int) gate.Matrix {
	h := gate.Matrix{K: 1, Data: []complex128{1 / math.Sqrt2, 1 / math.Sqrt2, 1 / math.Sqrt2, -1 / math.Sqrt2}}
	m := h
	for i := 1; i < k; i++ {
		m = m.Kron(h)
	}
	return m
}
