package service

import (
	"context"
	"io"
	"log/slog"
	"testing"

	"hisvsim/internal/circuit"
	"hisvsim/internal/core"
	"hisvsim/internal/obs"
)

// BenchmarkCacheHitSample measures the steady-state cost of a sample
// request against an already-cached circuit (the service's hot path).
func BenchmarkCacheHitSample(b *testing.B) {
	s := New(Config{Workers: 1})
	defer s.Close()
	c := circuit.MustNamed("qft", 14)
	req := Request{Circuit: c, Kind: KindRun, Readouts: core.ReadoutSpec{Shots: 1000}, Options: core.Options{Strategy: "dagp"}}
	if _, err := s.Do(context.Background(), req); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Readouts.Seed = int64(i)
		res, err := s.Do(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		if !res.CacheHit {
			b.Fatal("cache miss on hot path")
		}
	}
}

// BenchmarkServiceInstrumented is the observability overhead guard: the
// same cache-hit hot path as BenchmarkCacheHitSample, but configured the
// way hisvsimd runs in production — an explicit shared registry plus a
// real text slog handler at Info (writing to io.Discard), so the per-job
// finish line and every counter/histogram update are on the clock.
// Compare ns/op against BenchmarkCacheHitSample at the PR 6 commit; the
// budget is a <2% delta.
func BenchmarkServiceInstrumented(b *testing.B) {
	reg := obs.NewRegistry()
	s := New(Config{Workers: 1, Metrics: reg,
		Logger: obs.NewLogger(io.Discard, slog.LevelInfo, false)})
	defer s.Close()
	c := circuit.MustNamed("qft", 14)
	req := Request{Circuit: c, Kind: KindRun, Readouts: core.ReadoutSpec{Shots: 1000}, Options: core.Options{Strategy: "dagp"}}
	if _, err := s.Do(context.Background(), req); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Readouts.Seed = int64(i)
		res, err := s.Do(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		if !res.CacheHit {
			b.Fatal("cache miss on hot path")
		}
	}
}

// BenchmarkColdSimulate measures a full miss: simulation + sampling.
func BenchmarkColdSimulate(b *testing.B) {
	s := New(Config{Workers: 1, CacheBytes: -1})
	defer s.Close()
	c := circuit.MustNamed("qft", 14)
	req := Request{Circuit: c, Kind: KindRun, Readouts: core.ReadoutSpec{Shots: 1000}, Options: core.Options{Strategy: "dagp"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Do(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}
