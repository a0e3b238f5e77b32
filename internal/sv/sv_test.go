package sv

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"hisvsim/internal/circuit"
	"hisvsim/internal/gate"
)

const eps = 1e-9

// naiveApply is an independent dense reference: embeds the gate's FullMatrix
// explicitly. Quadratic, for cross-checking kernels only.
func naiveApply(s *State, g gate.Gate) *State {
	return naiveMatrix(s, g.Qubits, g.FullMatrix())
}

// naiveMatrix applies the 2^k×2^k matrix m to the listed qubits (qs[j] is
// bit j of the matrix index) by gathering each 2^k subvector.
func naiveMatrix(s *State, qs []int, m gate.Matrix) *State {
	k := len(qs)
	out := s.Clone()
	var mask int
	for _, q := range qs {
		mask |= 1 << uint(q)
	}
	for base := 0; base < s.Dim(); base++ {
		if base&mask != 0 {
			continue
		}
		dim := 1 << uint(k)
		sub := make([]complex128, dim)
		for i := 0; i < dim; i++ {
			idx := base
			for j := 0; j < k; j++ {
				if i>>uint(j)&1 == 1 {
					idx |= 1 << uint(qs[j])
				}
			}
			sub[i] = s.Amps[idx]
		}
		res := m.ApplyVec(sub)
		for i := 0; i < dim; i++ {
			idx := base
			for j := 0; j < k; j++ {
				if i>>uint(j)&1 == 1 {
					idx |= 1 << uint(qs[j])
				}
			}
			out.Amps[idx] = res[i]
		}
	}
	return out
}

func randomState(n int, seed int64) *State {
	rng := rand.New(rand.NewSource(seed))
	s := NewState(n)
	norm := 0.0
	for i := range s.Amps {
		s.Amps[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		norm += real(s.Amps[i])*real(s.Amps[i]) + imag(s.Amps[i])*imag(s.Amps[i])
	}
	norm = math.Sqrt(norm)
	for i := range s.Amps {
		s.Amps[i] /= complex(norm, 0)
	}
	return s
}

func TestNewState(t *testing.T) {
	s := NewState(3)
	if s.Dim() != 8 || s.Amps[0] != 1 {
		t.Fatal("bad initial state")
	}
	if math.Abs(s.Norm()-1) > eps {
		t.Fatal("norm != 1")
	}
}

func TestNewStateBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewState(-1)
}

func TestNewStateRaw(t *testing.T) {
	s := NewStateRaw(make([]complex128, 8))
	if s.N != 3 {
		t.Fatalf("N = %d", s.N)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-power-of-two")
		}
	}()
	NewStateRaw(make([]complex128, 6))
}

// TestKernelsMatchNaive checks every gate kind against the naive reference
// on a 4-qubit register and on a 10-qubit one with targets and controls on
// both sides of bit 3, where the kernels switch from their per-amplitude
// loop (runs of 1, 2 or 4 amplitudes) to walking contiguous runs.
func TestKernelsMatchNaive(t *testing.T) {
	th, ph, la := 0.83, -0.31, 1.94
	small := []gate.Gate{
		gate.H(0), gate.X(2), gate.Y(1), gate.Z(3), gate.S(0), gate.T(2),
		gate.SX(1), gate.RX(th, 0), gate.RY(th, 3), gate.RZ(th, 1),
		gate.P(la, 2), gate.U2(ph, la, 0), gate.U3(th, ph, la, 3),
		gate.CX(0, 2), gate.CX(3, 1), gate.CY(1, 3), gate.CZ(0, 3),
		gate.CH(2, 0), gate.CP(la, 1, 2), gate.CRX(th, 0, 1),
		gate.CRY(th, 2, 3), gate.CRZ(th, 3, 0), gate.CU3(th, ph, la, 1, 0),
		gate.SWAP(0, 3), gate.SWAP(2, 1), gate.RZZ(th, 1, 3),
		gate.CCX(0, 1, 3), gate.CCX(3, 2, 0), gate.CSWAP(1, 0, 2),
		gate.MCX([]int{0, 1, 2}, 3), gate.MCZ([]int{3, 1}, 0),
		gate.MCP(la, []int{2, 0}, 1),
	}
	var wide []gate.Gate
	for _, q := range []int{0, 2, 3, 5, 9} {
		wide = append(wide, gate.H(q), gate.X(q), gate.Y(q), gate.Z(q),
			gate.S(q), gate.Sdg(q), gate.T(q), gate.Tdg(q), gate.SX(q),
			gate.RX(th, q), gate.RY(th, q), gate.RZ(th, q), gate.P(la, q),
			gate.U2(ph, la, q), gate.U3(th, ph, la, q))
	}
	for _, pr := range [][2]int{{0, 1}, {1, 0}, {2, 7}, {7, 2}, {3, 9}, {9, 3}, {5, 8}, {8, 5}, {0, 9}, {4, 3}} {
		a, b := pr[0], pr[1]
		wide = append(wide, gate.CX(a, b), gate.CY(a, b), gate.CZ(a, b),
			gate.CH(a, b), gate.CP(la, a, b), gate.CRX(th, a, b),
			gate.CRY(th, a, b), gate.CRZ(th, a, b), gate.CU3(th, ph, la, a, b),
			gate.SWAP(a, b), gate.RZZ(th, a, b))
	}
	for _, tr := range [][3]int{{0, 1, 2}, {9, 4, 1}, {3, 6, 8}, {8, 0, 5}} {
		a, b, c := tr[0], tr[1], tr[2]
		wide = append(wide, gate.CCX(a, b, c), gate.CSWAP(a, b, c),
			gate.MCX([]int{a, b}, c), gate.MCZ([]int{a, c}, b),
			gate.MCP(la, []int{c, b}, a))
	}
	wide = append(wide, gate.MCX([]int{0, 4, 9}, 6), gate.MCP(la, []int{3, 5, 7}, 1))
	for n, gates := range map[int][]gate.Gate{4: small, 10: wide} {
		for _, g := range gates {
			s := randomState(n, 42)
			want := naiveApply(s, g)
			if err := s.ApplyGate(g); err != nil {
				t.Fatalf("%s: %v", g, err)
			}
			if !s.EqualTol(want, 1e-12) {
				t.Errorf("n=%d %s: kernel disagrees with naive reference", n, g)
			}
		}
	}
}

func TestKernelsParallelPathMatchesSerial(t *testing.T) {
	// Exceed parallelThreshold so the goroutine sweep runs; three workers
	// split every sweep into uneven chunks that cut contiguous runs
	// mid-way.
	n := 16
	c := circuit.Random(n, 40, 7)
	apply := func(workers int) *State {
		s := NewState(n)
		s.Workers = workers
		if err := s.ApplyCircuit(c); err != nil {
			t.Fatal(err)
		}
		for k, qs := range [][]int{{9}, {4, 11}, {0, 5}, {3, 8, 15}} {
			p := PrepareFused(n, qs)
			s.ApplyFusedPlan(p, randomMatrix(len(qs), int64(k)))
			s.ApplyFusedDiagonalPlan(p, randomDiag(len(qs), int64(k)))
		}
		return s
	}
	serial := apply(1)
	if !apply(3).EqualTol(serial, 1e-9) {
		t.Fatal("parallel sweep diverged from serial")
	}
}

func TestApplyGateRejectsOutOfRange(t *testing.T) {
	s := NewState(2)
	if err := s.ApplyGate(gate.H(2)); err == nil {
		t.Fatal("out-of-range gate accepted")
	}
	if err := s.ApplyGate(gate.CX(0, 0)); err == nil {
		t.Fatal("duplicate-qubit gate accepted")
	}
}

func TestBellAndGHZ(t *testing.T) {
	s, err := Run(circuit.CatState(3))
	if err != nil {
		t.Fatal(err)
	}
	inv := 1 / math.Sqrt2
	for i, a := range s.Amps {
		want := complex128(0)
		if i == 0 || i == 7 {
			want = complex(inv, 0)
		}
		if cmplx.Abs(a-want) > eps {
			t.Fatalf("GHZ amp[%d] = %v", i, a)
		}
	}
}

func TestNormPreservedOnBenchmarks(t *testing.T) {
	for _, spec := range circuit.Benchmarks(8) {
		c := spec.Build()
		if c.NumQubits > 14 {
			continue
		}
		s, err := Run(c)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if math.Abs(s.Norm()-1) > 1e-8 {
			t.Errorf("%s: norm = %v", spec.Name, s.Norm())
		}
	}
}

func TestBVRecoversSecret(t *testing.T) {
	n := 8
	secret := int64(0b0110101)
	s, err := Run(circuit.BV(n, secret))
	if err != nil {
		t.Fatal(err)
	}
	// Data qubits should measure exactly the secret; ancilla is in |-⟩.
	for q := 0; q < n-1; q++ {
		want := float64(secret >> uint(q) & 1)
		if p := s.Probability(q); math.Abs(p-want) > 1e-9 {
			t.Fatalf("qubit %d probability = %v, want %v", q, p, want)
		}
	}
}

func TestQFTOnBasisState(t *testing.T) {
	// QFT|x⟩ has all amplitudes of magnitude 2^{-n/2} with phases
	// e^{2πi·x·k/2^n} (up to the bit-reversal convention handled by the
	// final swaps).
	n := 5
	x := 11
	s := NewState(n)
	for q := 0; q < n; q++ {
		if x>>uint(q)&1 == 1 {
			if err := s.ApplyGate(gate.X(q)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.ApplyCircuit(circuit.QFT(n)); err != nil {
		t.Fatal(err)
	}
	dim := 1 << uint(n)
	mag := 1 / math.Sqrt(float64(dim))
	for k := 0; k < dim; k++ {
		phase := 2 * math.Pi * float64(x) * float64(k) / float64(dim)
		want := complex(mag*math.Cos(phase), mag*math.Sin(phase))
		if cmplx.Abs(s.Amps[k]-want) > 1e-9 {
			t.Fatalf("QFT amp[%d] = %v, want %v", k, s.Amps[k], want)
		}
	}
}

func TestQFTInverseQFTIsIdentity(t *testing.T) {
	n := 6
	s := randomState(n, 3)
	orig := s.Clone()
	if err := s.ApplyCircuit(circuit.QFT(n)); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyCircuit(circuit.InverseQFT(n)); err != nil {
		t.Fatal(err)
	}
	if !s.EqualTol(orig, 1e-8) {
		t.Fatal("QFT ∘ IQFT != identity")
	}
}

func TestGroverAmplifiesMarkedState(t *testing.T) {
	d := 5
	c := circuit.Grover(d, 2)
	s, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	// Marked state: all data qubits 1, ancillas 0.
	marked := (1 << uint(d)) - 1
	pMarked := 0.0
	for i := range s.Amps {
		if i&((1<<uint(d))-1) == marked {
			pMarked += s.BasisProbability(i)
		}
	}
	uniform := 1.0 / float64(int(1)<<uint(d))
	if pMarked < 5*uniform {
		t.Fatalf("Grover p(marked) = %v, uniform = %v", pMarked, uniform)
	}
}

func TestAdderAddsCorrectly(t *testing.T) {
	m := 3
	c := circuit.Adder(m)
	for _, tc := range []struct{ a, b int }{{0, 0}, {1, 1}, {3, 5}, {7, 7}, {5, 2}} {
		s := NewState(c.NumQubits)
		// Load a and b into the interleaved registers.
		for i := 0; i < m; i++ {
			if tc.a>>uint(i)&1 == 1 {
				if err := s.ApplyGate(gate.X(1 + 2*i)); err != nil {
					t.Fatal(err)
				}
			}
			if tc.b>>uint(i)&1 == 1 {
				if err := s.ApplyGate(gate.X(2 + 2*i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := s.ApplyCircuit(c); err != nil {
			t.Fatal(err)
		}
		got := s.MostLikely()
		sum := tc.a + tc.b
		for i := 0; i < m; i++ {
			if got>>(uint(2*i)+2)&1 != sum>>uint(i)&1 {
				t.Fatalf("a=%d b=%d: b[%d] wrong in basis %b", tc.a, tc.b, i, got)
			}
		}
		carry := sum >> uint(m) & 1
		if got>>uint(2*m+1)&1 != carry {
			t.Fatalf("a=%d b=%d: carry wrong in basis %b", tc.a, tc.b, got)
		}
	}
}

func TestQPEEstimatesPhase(t *testing.T) {
	tq := 6
	phi := 0.25 // exactly representable: peak must be sharp
	c := circuit.QPE(tq, phi, 1<<tq)
	s, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	got := s.MostLikely()
	counting := got & ((1 << uint(tq)) - 1)
	// The inverse-QFT convention in this construction reports the phase in
	// the counting register; accept the exact value or its bit-reversal.
	want := int(phi * float64(int(1)<<uint(tq)))
	rev := 0
	for i := 0; i < tq; i++ {
		if want>>uint(i)&1 == 1 {
			rev |= 1 << uint(tq-1-i)
		}
	}
	if counting != want && counting != rev {
		t.Fatalf("QPE counting register = %d, want %d (or reversed %d)", counting, want, rev)
	}
	if p := s.BasisProbability(got); p < 0.9 {
		t.Fatalf("QPE peak probability = %v", p)
	}
}

func TestDecomposedCircuitsMatchNative(t *testing.T) {
	for _, c := range []*circuit.Circuit{
		circuit.Grover(4, 1),
		circuit.Ising(5, 2),
		circuit.QFT(5),
	} {
		native, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := Run(c.Decomposed())
		if err != nil {
			t.Fatal(err)
		}
		if f := native.Fidelity(dec); math.Abs(f-1) > 1e-8 {
			t.Errorf("%s: decomposed fidelity = %v", c.Name, f)
		}
	}
}

func TestProbabilityAndMostLikely(t *testing.T) {
	s := NewState(2)
	if err := s.ApplyGate(gate.X(1)); err != nil {
		t.Fatal(err)
	}
	if p := s.Probability(1); math.Abs(p-1) > eps {
		t.Fatalf("P(q1=1) = %v", p)
	}
	if p := s.Probability(0); p > eps {
		t.Fatalf("P(q0=1) = %v", p)
	}
	if s.MostLikely() != 2 {
		t.Fatalf("MostLikely = %d", s.MostLikely())
	}
}

func TestInnerProductAndFidelity(t *testing.T) {
	a := NewState(3)
	b := NewState(3)
	if math.Abs(a.Fidelity(b)-1) > eps {
		t.Fatal("identical states fidelity != 1")
	}
	if err := b.ApplyGate(gate.X(0)); err != nil {
		t.Fatal(err)
	}
	if a.Fidelity(b) > eps {
		t.Fatal("orthogonal states fidelity != 0")
	}
}

func TestQuickNormPreservation(t *testing.T) {
	f := func(seed int64) bool {
		c := circuit.Random(6, 30, seed)
		s, err := Run(c)
		if err != nil {
			return false
		}
		return math.Abs(s.Norm()-1) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuickUnitarityViaRandomStates(t *testing.T) {
	// Applying any catalog gate must preserve inner products.
	f := func(seed int64, pick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		gates := []gate.Gate{
			gate.H(rng.Intn(4)), gate.RX(rng.Float64(), rng.Intn(4)),
			gate.CP(rng.Float64(), 0, 3), gate.CCX(1, 3, 0), gate.SWAP(2, 0),
		}
		g := gates[int(pick)%len(gates)]
		a := randomState(4, seed)
		b := randomState(4, seed+1)
		ipBefore := a.InnerProduct(b)
		if a.ApplyGate(g) != nil || b.ApplyGate(g) != nil {
			return false
		}
		return cmplx.Abs(a.InnerProduct(b)-ipBefore) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestOpsCounter(t *testing.T) {
	s := NewState(2)
	_ = s.ApplyGate(gate.H(0))
	_ = s.ApplyGate(gate.CX(0, 1))
	if s.Ops != 2 {
		t.Fatalf("Ops = %d", s.Ops)
	}
}
