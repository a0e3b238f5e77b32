// Service-layer throughput benchmark: cold vs. cache-hit request latency
// and sustained jobs/sec across worker-pool sizes. This is the evaluation
// artifact behind BENCH_service.json (cmd/benchtables -only service).

package experiments

import (
	"context"
	"fmt"
	"time"

	"hisvsim/internal/bench"
	"hisvsim/internal/circuit"
	"hisvsim/internal/core"
	"hisvsim/internal/service"
)

// ServiceConfig scales the service benchmark.
type ServiceConfig struct {
	// Family/Qubits pick the benchmark circuit (default qft-18, the
	// acceptance-criterion point).
	Family string
	Qubits int
	// Shots per sample request (default 1000).
	Shots int
	// WarmRequests is the cache-hit batch size per measurement (default 32).
	WarmRequests int
	// Workers are the pool sizes swept for jobs/sec (default 1,2,4,8).
	Workers []int
	// ThroughputJobs is the job count per jobs/sec point (default 64).
	ThroughputJobs int
	// Strategy is the partitioner (default "dagp").
	Strategy string
	// Seed drives the partitioner.
	Seed int64
}

// WithDefaults fills the zero values.
func (c ServiceConfig) WithDefaults() ServiceConfig {
	if c.Family == "" {
		c.Family = "qft"
	}
	if c.Qubits == 0 {
		c.Qubits = 18
	}
	if c.Shots == 0 {
		c.Shots = 1000
	}
	if c.WarmRequests == 0 {
		c.WarmRequests = 32
	}
	if len(c.Workers) == 0 {
		c.Workers = []int{1, 2, 4, 8}
	}
	if c.ThroughputJobs == 0 {
		c.ThroughputJobs = 64
	}
	if c.Strategy == "" {
		c.Strategy = "dagp"
	}
	return c
}

// ServiceThroughputRow is one worker-count jobs/sec measurement: a burst of
// warm sample jobs against one cached circuit drained by the pool.
type ServiceThroughputRow struct {
	Workers    int     `json:"workers"`
	Jobs       int     `json:"jobs"`
	JobsPerSec float64 `json:"jobs_per_sec"`
	ElapsedMS  float64 `json:"elapsed_ms"`
}

// ServiceReport is the full benchmark output (the BENCH_service.json
// schema): the cold/hit latency split plus the worker sweep.
type ServiceReport struct {
	Circuit    string  `json:"circuit"`
	Qubits     int     `json:"qubits"`
	Shots      int     `json:"shots"`
	Strategy   string  `json:"strategy"`
	ColdMS     float64 `json:"cold_ms"`     // first request: simulate + sample
	WarmMS     float64 `json:"warm_ms"`     // mean cache-hit request latency
	WarmBatch  int     `json:"warm_batch"`  // requests averaged into WarmMS
	HitSpeedup float64 `json:"hit_speedup"` // ColdMS / WarmMS

	Throughput  []ServiceThroughputRow `json:"throughput"`
	Simulations int64                  `json:"simulations"` // across the whole benchmark
}

// ServiceBench measures the service layer end to end. The cold number is a
// fresh service taking the first request (simulation + sampling); the warm
// number is the mean of WarmRequests differently-seeded sample requests
// that all hit the cached state. The throughput sweep then drains
// ThroughputJobs warm jobs per worker count.
func ServiceBench(cfg ServiceConfig) (*ServiceReport, error) {
	cfg = cfg.WithDefaults()
	c, err := circuit.Named(cfg.Family, cfg.Qubits)
	if err != nil {
		return nil, fmt.Errorf("service bench: %w", err)
	}
	opts := core.Options{Strategy: cfg.Strategy, Seed: cfg.Seed}
	req := func(seed int64) service.Request {
		return service.Request{
			Circuit: c, Kind: service.KindRun,
			Readouts: core.ReadoutSpec{Shots: cfg.Shots, Seed: seed},
			Options:  opts,
		}
	}
	rep := &ServiceReport{
		Circuit: cfg.Family, Qubits: cfg.Qubits, Shots: cfg.Shots,
		Strategy: cfg.Strategy, WarmBatch: cfg.WarmRequests,
	}
	ctx := context.Background()

	svc := service.New(service.Config{Workers: 1})
	start := time.Now()
	cold, err := svc.Do(ctx, req(0))
	if err != nil {
		svc.Close()
		return nil, err
	}
	rep.ColdMS = time.Since(start).Seconds() * 1e3
	if cold.CacheHit {
		svc.Close()
		return nil, fmt.Errorf("service bench: first request hit the cache")
	}

	start = time.Now()
	for i := 1; i <= cfg.WarmRequests; i++ {
		res, err := svc.Do(ctx, req(int64(i)))
		if err != nil {
			svc.Close()
			return nil, err
		}
		if !res.CacheHit {
			svc.Close()
			return nil, fmt.Errorf("service bench: warm request %d missed the cache", i)
		}
	}
	rep.WarmMS = time.Since(start).Seconds() * 1e3 / float64(cfg.WarmRequests)
	rep.HitSpeedup = safeDiv(rep.ColdMS, rep.WarmMS)
	rep.Simulations += svc.Stats().Simulations
	svc.Close()

	// Jobs/sec sweep: per worker count, prime the cache with one request,
	// then time a fully queued warm burst draining through the pool.
	for _, w := range cfg.Workers {
		svc := service.New(service.Config{Workers: w, QueueDepth: cfg.ThroughputJobs + 1})
		if _, err := svc.Do(ctx, req(0)); err != nil {
			svc.Close()
			return nil, err
		}
		ids := make([]string, 0, cfg.ThroughputJobs)
		start := time.Now()
		for i := 0; i < cfg.ThroughputJobs; i++ {
			id, err := svc.Submit(req(int64(1000 + i)))
			if err != nil {
				svc.Close()
				return nil, err
			}
			ids = append(ids, id)
		}
		for _, id := range ids {
			if _, err := svc.Wait(ctx, id); err != nil {
				svc.Close()
				return nil, err
			}
		}
		elapsed := time.Since(start)
		rep.Throughput = append(rep.Throughput, ServiceThroughputRow{
			Workers: w, Jobs: cfg.ThroughputJobs,
			JobsPerSec: safeDiv(float64(cfg.ThroughputJobs), elapsed.Seconds()),
			ElapsedMS:  elapsed.Seconds() * 1e3,
		})
		rep.Simulations += svc.Stats().Simulations
		svc.Close()
	}
	return rep, nil
}

// Table renders the report as the benchtables ASCII tables.
func (r *ServiceReport) Table() *bench.Table {
	t := bench.NewTable(fmt.Sprintf("Service: %s-%d, %d shots (%s)",
		r.Circuit, r.Qubits, r.Shots, r.Strategy),
		"metric", "value")
	t.AddRow("cold request ms", r.ColdMS)
	t.AddRow("cache-hit request ms", r.WarmMS)
	t.AddRow("hit speedup", r.HitSpeedup)
	for _, row := range r.Throughput {
		t.AddRow(fmt.Sprintf("jobs/sec @ %d workers", row.Workers), row.JobsPerSec)
	}
	t.AddRow("simulations", r.Simulations)
	return t
}

// Normalize flattens the report into the comparable BENCH schema. The
// simulation count is deterministic under the fixed config (one cold miss
// plus one cache prime per worker-sweep point), so it gates exactly.
func (r *ServiceReport) Normalize() (*bench.Report, error) {
	rep, err := bench.NewReport("service", r)
	if err != nil {
		return nil, err
	}
	p := fmt.Sprintf("%s-%d/", r.Circuit, r.Qubits)
	rep.Add(p+"cold_ms", r.ColdMS, "ms", bench.BetterLower, tolTime)
	rep.Add(p+"warm_ms", r.WarmMS, "ms", bench.BetterLower, tolTime)
	rep.Add(p+"hit_speedup", r.HitSpeedup, "x", bench.BetterHigher, tolRatio)
	for _, row := range r.Throughput {
		rep.Add(fmt.Sprintf("%sjobs_per_sec@%dw", p, row.Workers),
			row.JobsPerSec, "jobs/s", bench.BetterHigher, tolTime)
	}
	rep.Add(p+"simulations", float64(r.Simulations), "count", bench.BetterExact, 0)
	return rep, nil
}

// JSON renders the normalized report as indented JSON (the
// BENCH_service.json payload; the original report rides under "detail").
func (r *ServiceReport) JSON() ([]byte, error) {
	rep, err := r.Normalize()
	if err != nil {
		return nil, err
	}
	return rep.JSON()
}
