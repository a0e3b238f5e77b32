package service

import (
	"sync"

	"hisvsim/internal/obs"
	"hisvsim/internal/prof"
)

// Version identifies the service build in hisvsim_build_info and log lines.
// It tracks the repo's PR sequence rather than a release tag.
const Version = "1.0.0"

// This file is the service's metrics surface: every counter the old
// ad-hoc Stats bookkeeping tracked now lives in one obs.Registry (the
// single source of truth — Stats() is a read-only projection of it), plus
// the telemetry the scale-out work needs: per-stage latency histograms
// labeled by job kind and backend, queue depth, worker utilization, and
// per-cache hit/miss/eviction/residency series for all three
// content-addressed caches.

// Cache label values. The plan/state LRU holds both simulated states
// ("state", bound template states keyed tplrun|…) and evolved density
// matrices ("rho", keyed dm|…); compiled trajectory plans, templates
// included, live in the dedicated plan LRU ("plan").
const (
	cacheState = "state"
	cachePlan  = "plan"
	cacheRho   = "rho"
)

// Stage names, in the order a fully instrumented job passes through them.
// Every job's spans tile submitted→finished, so per-stage histogram sums
// are also a worker-utilization ledger.
const (
	stageQueueWait    = "queue_wait"   // submitted → picked up by a worker
	stageCompile      = "compile"      // trajectory-plan / template fusion compile
	stageSpecialize   = "specialize"   // re-binding a compiled template's touched blocks
	stageExecute      = "execute"      // cache lookup + (on miss) the stages below
	stageSimulate     = "simulate"     // ideal simulation inside core (cache miss)
	stageTrajectories = "trajectories" // trajectory-ensemble sweep (noise engine)
	stageSample       = "sample"       // readout derivation: sampling, marginals, observables
)

// serviceMetrics bundles the service's instruments. Hot-path children
// (per-kind, per-cache) are resolved once here, not per job.
type serviceMetrics struct {
	reg *obs.Registry

	jobsSubmitted *obs.CounterVec   // {kind}
	jobsFinished  *obs.CounterVec   // {kind, status}
	stageSeconds  *obs.HistogramVec // {stage, kind, backend}

	workersBusy      *obs.Gauge
	simulations      *obs.Counter
	trajectories     *obs.Counter
	templateCompiles *obs.Counter
	backendJobs      *obs.CounterVec // {backend}

	cacheHits      *obs.CounterVec // {cache}
	cacheMisses    *obs.CounterVec // {cache}
	cacheEvictions *obs.CounterVec // {cache}
	cacheBytes     *obs.GaugeVec   // {cache}
	cacheEntries   *obs.GaugeVec   // {cache}

	kernelSeconds *obs.FloatCounterVec // {kernel, width}
	kernelBytes   *obs.CounterVec      // {kernel, width}

	// stageTimers caches resolved stage-histogram children per (stage, kind,
	// backend), so the per-job flush in finish() touches no registry locks on
	// the steady-state path. The obs lookup itself is allocation-free; this
	// cache removes the per-label trie walk as well.
	stageMu     sync.RWMutex
	stageTimers map[stageKey]*obs.Histogram
}

// stageKey addresses one cached stage-duration histogram child.
type stageKey struct{ stage, kind, backend string }

// stageObserve records one stage duration through the handle cache.
func (m *serviceMetrics) stageObserve(stage, kind, backend string, seconds float64) {
	k := stageKey{stage, kind, backend}
	m.stageMu.RLock()
	h := m.stageTimers[k]
	m.stageMu.RUnlock()
	if h == nil {
		h = m.stageSeconds.With(stage, kind, backend)
		m.stageMu.Lock()
		m.stageTimers[k] = h
		m.stageMu.Unlock()
	}
	h.Observe(seconds)
}

// flushProfile folds one finished job's kernel profile into the aggregate
// per-kernel registry series.
func (m *serviceMetrics) flushProfile(stats []prof.KernelStat) {
	for _, ks := range stats {
		w := prof.WidthLabel(ks.Width)
		m.kernelSeconds.With(ks.Kernel, w).Add(ks.Seconds)
		m.kernelBytes.With(ks.Kernel, w).Add(ks.Bytes)
	}
}

func newServiceMetrics(reg *obs.Registry) *serviceMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &serviceMetrics{reg: reg, stageTimers: map[stageKey]*obs.Histogram{}}
	obs.RegisterBuildInfo(reg, Version)
	obs.RegisterRuntimeMetrics(reg)
	m.jobsSubmitted = reg.CounterVec("hisvsim_jobs_submitted_total",
		"Accepted job submissions by request kind.", "kind")
	m.jobsFinished = reg.CounterVec("hisvsim_jobs_finished_total",
		"Terminal jobs by request kind and final status (done, failed, canceled).", "kind", "status")
	m.stageSeconds = reg.HistogramVec("hisvsim_stage_duration_seconds",
		"Per-job stage latency by stage, request kind and executing backend. Stages tile the submitted-to-finished window.",
		obs.DurationBuckets(), "stage", "kind", "backend")
	m.workersBusy = reg.Gauge("hisvsim_workers_busy",
		"Worker-pool slots currently executing a job.")
	m.simulations = reg.Counter("hisvsim_simulations_total",
		"Actual simulations executed (cache misses that ran an engine).")
	m.trajectories = reg.Counter("hisvsim_trajectories_total",
		"Stochastic trajectories executed across all noisy ensembles.")
	m.templateCompiles = reg.Counter("hisvsim_template_compiles_total",
		"Plan compiles of parameterized circuits (the sweep amortization ledger).")
	m.backendJobs = reg.CounterVec("hisvsim_backend_jobs_total",
		"Executed jobs per engine (registry names plus \"trajectory\").", "backend")
	m.cacheHits = reg.CounterVec("hisvsim_cache_hits_total",
		"Content-addressed cache hits by cache (state, plan, rho).", "cache")
	m.cacheMisses = reg.CounterVec("hisvsim_cache_misses_total",
		"Content-addressed cache misses by cache (state, plan, rho).", "cache")
	m.cacheEvictions = reg.CounterVec("hisvsim_cache_evictions_total",
		"LRU evictions by cache (state, plan, rho).", "cache")
	m.cacheBytes = reg.GaugeVec("hisvsim_cache_resident_bytes",
		"Resident bytes per cache (state, plan, rho).", "cache")
	m.cacheEntries = reg.GaugeVec("hisvsim_cache_entries",
		"Resident entries per cache (state, plan, rho).", "cache")
	m.kernelSeconds = reg.FloatCounterVec("hisvsim_kernel_seconds_total",
		"Kernel-attributed execution seconds by kernel class (dense, diagonal, controlled, kraus, superop) and block width in qubits.",
		"kernel", "width")
	m.kernelBytes = reg.CounterVec("hisvsim_kernel_bytes_total",
		"Estimated amplitude bytes moved per kernel class and block width (the per-job profile's traffic model, aggregated).",
		"kernel", "width")
	return m
}

// attach wires the service-shaped callback gauges and the LRU eviction
// hooks. Called once from New, after the caches exist.
func (m *serviceMetrics) attach(s *Service) {
	m.reg.GaugeFunc("hisvsim_queue_depth",
		"Jobs queued but not yet picked up by a worker.",
		func() float64 { return float64(len(s.queue)) })
	m.reg.Gauge("hisvsim_workers", "Configured worker-pool size.").Set(float64(s.cfg.Workers))
	// Evictions fire from inside lru.Put under s.mu; the hook only touches
	// atomics, so no lock-order risk. Replacing an existing key counts as
	// an eviction of the old value (single-flighted misses make genuine
	// replacement rare).
	s.cache.Evicted = m.evicted
	s.planCache.Evicted = m.evicted
}

// evicted is the LRU eviction hook of both caches: the stored cacheItem
// carries the label its series are attributed to.
func (m *serviceMetrics) evicted(_ string, v any, cost int64) {
	name := v.(cacheItem).label
	m.cacheEvictions.With(name).Inc()
	m.cacheBytes.With(name).Add(float64(-cost))
	m.cacheEntries.With(name).Add(-1)
}

// cachePut records a successful insertion's residency.
func (m *serviceMetrics) cachePut(name string, cost int64) {
	m.cacheBytes.With(name).Add(float64(cost))
	m.cacheEntries.With(name).Add(1)
}
