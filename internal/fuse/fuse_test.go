package fuse

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"hisvsim/internal/circuit"
	"hisvsim/internal/gate"
	"hisvsim/internal/sv"
)

// randomState returns a normalized random state for differential tests.
func randomState(n int, seed int64) *sv.State {
	rng := rand.New(rand.NewSource(seed))
	st := sv.NewState(n)
	norm := 0.0
	for i := range st.Amps {
		st.Amps[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		norm += real(st.Amps[i])*real(st.Amps[i]) + imag(st.Amps[i])*imag(st.Amps[i])
	}
	norm = math.Sqrt(norm)
	for i := range st.Amps {
		st.Amps[i] /= complex(norm, 0)
	}
	return st
}

// applyBoth runs the gate list through sv.ApplyGates, an unfused Program
// and a fused Program on the same random input state. The unfused program
// must reproduce the reference amplitudes exactly (==); the fused one must
// agree element-wise within 1e-9.
func applyBoth(t *testing.T, n int, gates []gate.Gate, opts Options, seed int64) []Block {
	t.Helper()
	want := randomState(n, seed)
	got := want.Clone()
	unfused := want.Clone()
	if err := want.ApplyGates(gates); err != nil {
		t.Fatal(err)
	}
	plain, err := Compile(gates, n, false, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Blocks) != len(gates) {
		t.Fatalf("unfused program has %d blocks for %d gates", len(plain.Blocks), len(gates))
	}
	if err := plain.Apply(unfused); err != nil {
		t.Fatal(err)
	}
	for i := range want.Amps {
		if unfused.Amps[i] != want.Amps[i] {
			t.Fatalf("unfused program amplitude %d = %v, sv.ApplyGates gives %v", i, unfused.Amps[i], want.Amps[i])
		}
	}
	prog, err := Compile(gates, n, true, opts)
	if err != nil {
		t.Fatal(err)
	}
	if GateCount(prog.Blocks) != len(gates) {
		t.Fatalf("blocks cover %d gates, want %d", GateCount(prog.Blocks), len(gates))
	}
	if err := prog.Apply(got); err != nil {
		t.Fatal(err)
	}
	if !got.EqualTol(want, 1e-9) {
		t.Fatalf("fused state diverges from unfused (max err %v)", maxErr(got, want))
	}
	return prog.Blocks
}

func maxErr(a, b *sv.State) float64 {
	m := 0.0
	for i := range a.Amps {
		if d := cmplx.Abs(a.Amps[i] - b.Amps[i]); d > m {
			m = d
		}
	}
	return m
}

func TestFuseMatchesUnfusedOnFamilies(t *testing.T) {
	for _, fam := range circuit.Families() {
		c, err := circuit.Named(fam, 8)
		if err != nil {
			t.Fatal(err)
		}
		blocks := applyBoth(t, c.NumQubits, c.Gates, Options{}, 7)
		if len(blocks) >= c.NumGates() && c.NumGates() > 20 {
			t.Errorf("%s: fusion produced %d blocks for %d gates (no coalescing)",
				fam, len(blocks), c.NumGates())
		}
	}
}

func TestFuseDiagonalRunsStayDiagonal(t *testing.T) {
	var gs []gate.Gate
	for i := 0; i < 8; i++ {
		gs = append(gs, gate.RZ(0.1*float64(i+1), i%4))
		if i%2 == 0 {
			gs = append(gs, gate.CP(0.3, i%4, (i+1)%4))
		}
	}
	blocks := applyBoth(t, 4, gs, Options{}, 3)
	if len(blocks) != 1 || blocks[0].Kind != Diagonal {
		t.Fatalf("pure-diagonal sequence fused into %d blocks (kind %v), want 1 Diagonal",
			len(blocks), blocks[0].Kind)
	}
}

func TestFuseRespectsSupportCap(t *testing.T) {
	c := circuit.QFT(9)
	for _, cap := range []int{2, 3, 5} {
		blocks, err := Fuse(c.Gates, Options{MaxQubits: cap, MaxDiagQubits: cap})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range blocks {
			if b.Kind != Single && len(b.Qubits) > cap {
				t.Fatalf("cap %d: block support %v", cap, b.Qubits)
			}
		}
	}
}

func TestFuseOversizedGatePassesThrough(t *testing.T) {
	gs := []gate.Gate{
		gate.H(0),
		gate.MCX([]int{0, 1, 2, 3, 4, 5}, 6), // arity 7 > both caps
		gate.H(6),
	}
	blocks, err := Fuse(gs, Options{MaxQubits: 3, MaxDiagQubits: 3})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, b := range blocks {
		if len(b.Gates) == 1 && b.Gates[0].Name == "mcx" {
			if b.Kind != Single {
				t.Fatalf("oversized gate got kind %v", b.Kind)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("oversized mcx not emitted as passthrough")
	}
	applyBoth(t, 7, gs, Options{MaxQubits: 3, MaxDiagQubits: 3}, 5)
}

func TestFuseSingleBlockPreservesGateOrderWithinSupport(t *testing.T) {
	// h then x on the same qubit do not commute: X·H ≠ H·X. The fused
	// matrix must equal the product in application order.
	gs := []gate.Gate{gate.H(0), gate.X(0), gate.RY(0.4, 1)}
	applyBoth(t, 2, gs, Options{}, 11)
}

func TestFuseDenseBlockUnitary(t *testing.T) {
	gs := []gate.Gate{gate.CX(0, 1), gate.RZ(0.7, 1), gate.CX(0, 1)}
	blocks, err := Fuse(gs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 1 {
		t.Fatalf("zz phase gadget fused into %d blocks, want 1", len(blocks))
	}
	b := blocks[0]
	if b.Kind != Dense {
		t.Fatalf("kind = %v, want Dense", b.Kind)
	}
	if !b.Matrix.IsUnitary(1e-12) {
		t.Fatal("fused matrix not unitary")
	}
}

func TestFuseEmptyAndInvalid(t *testing.T) {
	blocks, err := Fuse(nil, Options{})
	if err != nil || len(blocks) != 0 {
		t.Fatalf("empty fuse: %v, %d blocks", err, len(blocks))
	}
	if _, err := Fuse([]gate.Gate{{Name: "nope", Qubits: []int{0}}}, Options{}); err == nil {
		t.Fatal("invalid gate accepted")
	}
}

func TestFuseReorderOffStillCorrect(t *testing.T) {
	c := circuit.QAOA(7, 2, 5)
	applyBoth(t, 7, c.Gates, Options{NoReorder: true}, 13)
}

func TestFuseReducesSweepsOnDeepCircuits(t *testing.T) {
	// The bound is 2/3 rather than 1/2: single-qubit field layers (e.g.
	// ising's RX sweeps) deliberately stay per-gate — their specialized
	// kernels beat a grown dense block — so the reduction comes from the
	// diagonal layers collapsing into runs.
	for _, fam := range []string{"qft", "ising", "qpe"} {
		c, err := circuit.Named(fam, 10)
		if err != nil {
			t.Fatal(err)
		}
		blocks, err := Fuse(c.Gates, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if s := Sweeps(blocks); s*3 > c.NumGates()*2 {
			t.Errorf("%s: %d sweeps for %d gates, want ≤ 2/3", fam, s, c.NumGates())
		}
	}
}

func TestQuickFuseEqualsUnfused(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		c := circuit.Random(6, 50, seed)
		applyBoth(t, 6, c.Gates, Options{}, seed+100)
		applyBoth(t, 6, c.Gates, Options{MaxQubits: 3}, seed+200)
	}
}
