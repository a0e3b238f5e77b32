package sv

import (
	"fmt"
	"math/rand"
	"testing"

	"hisvsim/internal/gate"
	"hisvsim/internal/prof"
)

// randomMatrix returns a 2^k×2^k matrix of Gaussian entries: the kernels
// assume no unitarity, so a generic matrix exercises every coefficient.
func randomMatrix(k int, seed int64) gate.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := gate.NewMatrix(k)
	for i := range m.Data {
		m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return m
}

// randomDiag returns 2^k Gaussian diagonal entries.
func randomDiag(k int, seed int64) []complex128 {
	return randomMatrix(k, seed).Data[:1<<uint(k)]
}

// diagMatrix embeds a diagonal as a dense matrix for the naive reference.
func diagMatrix(d []complex128) gate.Matrix {
	k := 0
	for 1<<uint(k) < len(d) {
		k++
	}
	m := gate.NewMatrix(k)
	for i, v := range d {
		m.Set(i, i, v)
	}
	return m
}

// fusedQubitSets are sorted k-qubit target sets on a 10-qubit register:
// all below bit 3 (per-amplitude loop), all at or above it (run walk), and
// straddling it with the lowest target below.
func fusedQubitSets(k int) map[string][]int {
	low := make([]int, k)
	high := make([]int, k)
	for i := range low {
		low[i] = i
		high[i] = 10 - k + i
	}
	return map[string][]int{
		"low":      low,
		"high":     high,
		"from3":    []int{3, 5, 7, 8, 9}[:k],
		"straddle": append([]int{1}, []int{4, 6, 8, 9}[:k-1]...),
	}
}

func TestFusedKernelsMatchNaive(t *testing.T) {
	for k := 1; k <= 5; k++ {
		for name, qs := range fusedQubitSets(k) {
			p := PrepareFused(10, qs)
			m := randomMatrix(k, int64(k))
			s := randomState(10, int64(10*k))
			want := naiveMatrix(s, qs, m)
			s.ApplyFusedPlan(p, m)
			if !s.EqualTol(want, 1e-12) {
				t.Errorf("dense k=%d %s %v: fused kernel disagrees with naive reference", k, name, qs)
			}
			d := randomDiag(k, int64(k+1))
			s = randomState(10, int64(10*k+1))
			want = naiveMatrix(s, qs, diagMatrix(d))
			s.ApplyFusedDiagonalPlan(p, d)
			if !s.EqualTol(want, 1e-12) {
				t.Errorf("diagonal k=%d %s %v: fused kernel disagrees with naive reference", k, name, qs)
			}
		}
	}
}

// TestKernelAllocs pins the per-call allocation counts of the hot kernels
// on a single-worker 12-qubit state: the gate path keeps its matrix and
// closure allocations, and no kernel adds scratch per call.
func TestKernelAllocs(t *testing.T) {
	st := randomState(12, 5)
	st.Workers = 1
	for _, tc := range []struct {
		g   gate.Gate
		max float64
	}{
		{gate.H(0), 3}, {gate.H(9), 3}, {gate.RX(0.3, 5), 3},
		{gate.CX(0, 9), 3}, {gate.CX(9, 4), 3},
		{gate.CP(0.2, 1, 8), 4}, {gate.CP(0.2, 8, 4), 4},
		{gate.RZZ(0.4, 2, 7), 4}, {gate.RZZ(0.4, 5, 10), 4},
	} {
		if a := testing.AllocsPerRun(20, func() { _ = st.ApplyGate(tc.g) }); a > tc.max {
			t.Errorf("ApplyGate(%s): %v allocs per call, want ≤ %v", tc.g, a, tc.max)
		}
	}
	// k≤2 fused blocks gather into no scratch: only the sweep closure
	// remains, where the generic k≥3 kernel also allocates two buffers.
	for _, tc := range []struct {
		qs  []int
		max float64
	}{{[]int{0, 1}, 1}, {[]int{4, 9}, 1}, {[]int{0, 1, 2}, 3}, {[]int{3, 6, 10}, 3}} {
		p := PrepareFused(12, tc.qs)
		m := randomMatrix(len(tc.qs), 1)
		if a := testing.AllocsPerRun(20, func() { st.ApplyFusedPlan(p, m) }); a > tc.max {
			t.Errorf("ApplyFusedPlan(%v): %v allocs per call, want ≤ %v", tc.qs, a, tc.max)
		}
	}
}

// TestFusedProfileAllocs checks the profiler's scratch accounting: the
// specialized k=1 and k=2 kernels gather into no scratch, while the
// generic k≥3 kernel allocates two 2^k buffers per parallel chunk.
func TestFusedProfileAllocs(t *testing.T) {
	for _, workers := range []int{1, 3} {
		st := randomState(17, 2)
		st.Workers = workers
		rec := prof.NewRecorder()
		st.Prof = rec
		for _, qs := range [][]int{{5}, {0, 7}, {4, 9}, {1, 5, 12}} {
			st.ApplyFusedPlan(PrepareFused(17, qs), randomMatrix(len(qs), 3))
		}
		want := map[int]int64{1: 0, 2: 0, 3: 2 * st.sweepChunks(1<<14)}
		calls := map[int]int64{1: 1, 2: 2, 3: 1}
		for _, ks := range rec.Snapshot() {
			if ks.Kernel != "dense" {
				t.Fatalf("workers %d: unexpected kernel class %q", workers, ks.Kernel)
			}
			if ks.Calls != calls[ks.Width] || ks.Allocs != want[ks.Width] {
				t.Errorf("workers %d, k=%d: %d calls, %d allocs; want %d calls, %d allocs",
					workers, ks.Width, ks.Calls, ks.Allocs, calls[ks.Width], want[ks.Width])
			}
			delete(want, ks.Width)
		}
		if len(want) != 0 {
			t.Errorf("workers %d: widths %v not recorded", workers, want)
		}
	}
}

// BenchmarkKernels times the specialized kernels — a 1-qubit gate, cx, a
// dense k=2 fused block and a two-qubit diagonal (rzz) — with their lowest
// pinned bit low (per-amplitude loop) and high (run walk), on a 12-qubit
// (64 KiB, L1/L2-resident) and a 20-qubit (16 MiB) single-worker state.
func BenchmarkKernels(b *testing.B) {
	for _, n := range []int{12, 20} {
		st := randomState(n, 1)
		st.Workers = 1
		for _, pos := range []struct {
			name   string
			lo, hi int
		}{{"low", 0, 1}, {"high", n - 2, n - 1}} {
			p := PrepareFused(n, []int{pos.lo, pos.hi})
			m := randomMatrix(2, 1)
			cases := []struct {
				name string
				run  func()
			}{
				{"1q", func() { _ = st.ApplyGate(gate.H(pos.lo)) }},
				{"cx", func() { _ = st.ApplyGate(gate.CX(pos.hi, pos.lo)) }},
				{"dense2", func() { st.ApplyFusedPlan(p, m) }},
				{"diag2", func() { _ = st.ApplyGate(gate.RZZ(0.3, pos.lo, pos.hi)) }},
			}
			for _, c := range cases {
				b.Run(fmt.Sprintf("%s/%s/%dq", c.name, pos.name, n), func(b *testing.B) {
					for b.Loop() {
						c.run()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(st.Amps)), "ns/amp")
				})
			}
		}
	}
}
