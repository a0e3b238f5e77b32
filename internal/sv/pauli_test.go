package sv

import (
	"math"
	"testing"
)

// pauliCases is a spread of X/Y/Z(/I) mixes over an 8-qubit register.
var pauliCases = []PauliString{
	{Ops: "Z", Qubits: []int{0}},
	{Ops: "X", Qubits: []int{3}},
	{Ops: "Y", Qubits: []int{5}},
	{Ops: "XX", Qubits: []int{0, 1}},
	{Ops: "XY", Qubits: []int{2, 6}},
	{Ops: "YY", Qubits: []int{1, 4}},
	{Ops: "ZX", Qubits: []int{7, 0}},
	{Ops: "XYZ", Qubits: []int{0, 3, 5}},
	{Ops: "YXZI", Qubits: []int{6, 2, 1, 4}},
	{Coeff: -0.75, Ops: "XZYX", Qubits: []int{1, 2, 3, 4}},
	{Ops: "ZZ", Qubits: []int{2, 2}}, // legacy Z repeat: cancels to identity
}

// TestExpectationPauliMatchesBasisChange checks the fused kernel against
// the unfused reference: apply the basis-change gates to a clone, then
// measure the resulting Z string.
func TestExpectationPauliMatchesBasisChange(t *testing.T) {
	st := randomState(8, 42)
	for _, p := range pauliCases {
		got := st.ExpectationPauliString(p)

		ref := st.Clone()
		gs, zq := p.BasisChangeGates()
		if err := ref.ApplyGates(gs); err != nil {
			t.Fatalf("%v: basis change: %v", p, err)
		}
		want := p.Coefficient() * ref.ExpectationPauliZString(zq)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%v: kernel %.12f, basis-change reference %.12f", p, got, want)
		}
	}
}

// TestExpectationPauliZOnlyDelegates pins the Z-only path to the Z-string
// kernel bit-for-bit (the noise and dm analytic-decay tests rely on this).
func TestExpectationPauliZOnlyDelegates(t *testing.T) {
	st := randomState(7, 7)
	for _, qs := range [][]int{{0}, {1, 4}, {2, 2, 5}, {}} {
		ops := make([]byte, len(qs))
		for i := range ops {
			ops[i] = 'Z'
		}
		if got, want := st.ExpectationPauli(string(ops), qs), st.ExpectationPauliZString(qs); got != want {
			t.Errorf("qubits %v: ExpectationPauli %v != ZString %v", qs, got, want)
		}
	}
}

// TestExpectationPauliKnownStates checks hand-computable eigenstates.
func TestExpectationPauliKnownStates(t *testing.T) {
	// |+⟩ on qubit 0 of 2: ⟨X0⟩ = 1, ⟨Y0⟩ = 0, ⟨Z0⟩ = 0.
	plus := NewState(2)
	plus.Amps[0] = complex(1/math.Sqrt2, 0)
	plus.Amps[1] = complex(1/math.Sqrt2, 0)
	// |+i⟩ on qubit 1 of 2: ⟨Y1⟩ = 1.
	yplus := NewState(2)
	yplus.Amps[0] = complex(1/math.Sqrt2, 0)
	yplus.Amps[2] = complex(0, 1/math.Sqrt2)
	checks := []struct {
		st   *State
		p    PauliString
		want float64
	}{
		{plus, PauliString{Ops: "X", Qubits: []int{0}}, 1},
		{plus, PauliString{Ops: "Y", Qubits: []int{0}}, 0},
		{plus, PauliString{Ops: "Z", Qubits: []int{0}}, 0},
		{plus, PauliString{Coeff: 2.5, Ops: "X", Qubits: []int{0}}, 2.5},
		{yplus, PauliString{Ops: "Y", Qubits: []int{1}}, 1},
		{yplus, PauliString{Ops: "Z", Qubits: []int{0}}, 1},
	}
	for _, c := range checks {
		if got := c.st.ExpectationPauliString(c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%v: got %.12f, want %.12f", c.p, got, c.want)
		}
	}
}

func TestPauliStringValidate(t *testing.T) {
	bad := []PauliString{
		{Ops: "XZ", Qubits: []int{0}},         // length mismatch
		{Ops: "Q", Qubits: []int{0}},          // unknown letter
		{Ops: "X", Qubits: []int{9}},          // out of range
		{Ops: "XX", Qubits: []int{1, 1}},      // X repeat
		{Ops: "ZY", Qubits: []int{2, 2}},      // mixed repeat
		{Ops: "X", Qubits: []int{-1}},         // negative qubit
		{Ops: "ZZZ", Qubits: []int{0, 1, -2}}, // negative qubit later
	}
	for _, p := range bad {
		if err := p.Validate(4); err == nil {
			t.Errorf("%v: validated but should not", p)
		}
	}
	good := []PauliString{
		{Ops: "xyz", Qubits: []int{0, 1, 2}}, // lower case accepted
		{Ops: "ZZ", Qubits: []int{3, 3}},     // Z repeat cancels
		{Ops: "", Qubits: nil},               // identity
		{Ops: "I", Qubits: []int{1}},
	}
	for _, p := range good {
		if err := p.Validate(4); err != nil {
			t.Errorf("%v: unexpected error %v", p, err)
		}
	}
}

// TestExpectationPauliPanicsOnMalformed pins the kernel's documented
// panic contract: malformed strings must never silently compute a
// different operator.
func TestExpectationPauliPanicsOnMalformed(t *testing.T) {
	st := randomState(3, 1)
	for _, p := range []PauliString{
		{Ops: "XX", Qubits: []int{1, 1}}, // X repeat would XOR-cancel the flip
		{Ops: "ZY", Qubits: []int{2, 2}},
		{Ops: "W", Qubits: []int{0}}, // unknown letter
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v: kernel did not panic", p)
				}
			}()
			st.ExpectationPauliString(p)
		}()
	}
}
