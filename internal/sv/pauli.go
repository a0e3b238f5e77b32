package sv

import (
	"fmt"
	"strings"

	"hisvsim/internal/gate"
)

// This file generalizes the Z-only ExpectationPauliZString to arbitrary
// Pauli strings (Hamiltonian terms). The kernel is the fused form of the
// textbook basis-change recipe — rotate every X qubit by H and every Y
// qubit by H·S† so the string becomes Z-only, then measure — folded into a
// single non-mutating sweep: conjugating P = ∏σ through the basis change
// analytically gives
//
//	⟨ψ|P|ψ⟩ = i^{#Y} · Σ_i (−1)^{popcount(i & (maskY|maskZ))} · ψ*_{i⊕(maskX|maskY)} · ψ_i
//
// because X|b⟩ = |¬b⟩, Y|b⟩ = i(−1)^b|¬b⟩ and Z|b⟩ = (−1)^b|b⟩. One pass,
// no scratch state, safe on states shared read-only (the service cache).
// BasisChangeGates exposes the unfused rotation for differential tests.

// PauliString is one weighted Pauli operator ∏ σ_{Ops[k]} on Qubits[k]
// (a Hamiltonian term). Ops holds one letter per listed qubit: 'I', 'X',
// 'Y' or 'Z' (lower case accepted).
type PauliString struct {
	// Coeff scales the expectation value; 0 is treated as 1 so that the
	// zero value of the field means "unweighted".
	Coeff float64
	// Ops spells the operator, e.g. "XZY"; Qubits lists the qubit each
	// letter acts on (same length).
	Ops    string
	Qubits []int
}

// Coefficient returns Coeff with the 0-means-1 default applied.
func (p PauliString) Coefficient() float64 {
	if p.Coeff == 0 {
		return 1
	}
	return p.Coeff
}

// Validate checks the string against an n-qubit register: matching
// lengths, known letters, in-range qubits. A qubit may repeat only when
// every occurrence is 'Z' (Z² = I, the Z-string XOR semantics);
// repeats under X or Y would silently collapse to phases, so they are
// rejected.
func (p PauliString) Validate(n int) error {
	if len(p.Ops) != len(p.Qubits) {
		return fmt.Errorf("sv: pauli string %q has %d ops for %d qubits", p.Ops, len(p.Ops), len(p.Qubits))
	}
	seen := map[int]byte{}
	for k, q := range p.Qubits {
		if q < 0 || q >= n {
			return fmt.Errorf("sv: pauli qubit %d out of range [0,%d)", q, n)
		}
		op := upperPauli(p.Ops[k])
		switch op {
		case 'I', 'X', 'Y', 'Z':
		default:
			return fmt.Errorf("sv: unknown pauli %q in %q (want I, X, Y or Z)", string(p.Ops[k]), p.Ops)
		}
		if prev, ok := seen[q]; ok && (prev != 'Z' || op != 'Z') {
			return fmt.Errorf("sv: qubit %d repeats in pauli string %q (only Z repeats cancel)", q, p.Ops)
		}
		seen[q] = op
	}
	return nil
}

// String renders e.g. "-0.5·X0 Z2".
func (p PauliString) String() string {
	var b strings.Builder
	c := p.Coefficient()
	if c != 1 {
		fmt.Fprintf(&b, "%g·", c)
	}
	if len(p.Qubits) == 0 {
		b.WriteString("I")
	}
	for k, q := range p.Qubits {
		if k > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%c%d", upperPauli(p.Ops[k]), q)
	}
	return b.String()
}

func upperPauli(c byte) byte {
	if 'a' <= c && c <= 'z' {
		return c - 'a' + 'A'
	}
	return c
}

// Masks folds the string into the bit-mask kernel form — flip (X and Y
// qubits), sign (Y and Z qubits, Z repeats XOR-canceling) and the Y count
// fixing the i^{numY} phase — panicking on malformed input (unknown
// letters, or a qubit repeated under anything but Z — the XOR folding would
// silently compute a different operator). Both the state-vector expectation
// kernel and the density-matrix Tr(ρP) sweep consume this form.
func (p PauliString) Masks() (flip, sign, numY int) {
	var touched, zOnly int
	for k, q := range p.Qubits {
		bit := 1 << uint(q)
		op := upperPauli(p.Ops[k])
		if touched&bit != 0 && (zOnly&bit == 0 || op != 'Z') {
			panic(fmt.Sprintf("sv: qubit %d repeats in pauli string %q (only Z repeats cancel)", q, p.Ops))
		}
		touched |= bit
		switch op {
		case 'I':
		case 'X':
			flip |= bit
		case 'Y':
			flip |= bit
			sign |= bit
			numY++
		case 'Z':
			sign ^= bit
			zOnly |= bit
		default:
			panic(fmt.Sprintf("sv: unknown pauli %q in %q (want I, X, Y or Z)", string(p.Ops[k]), p.Ops))
		}
	}
	return flip, sign, numY
}

// BasisChangeGates returns the unfused basis-change form of the string:
// the rotation gates that map it to a Z-only string (H for X, S†·H for Y)
// and the qubits that Z-string acts on afterwards. Applying the gates to a
// state and measuring ExpectationPauliZString over the returned qubits
// equals ExpectationPauli on the original state — the differential
// reference for the fused kernel.
func (p PauliString) BasisChangeGates() ([]gate.Gate, []int) {
	var gs []gate.Gate
	var zq []int
	for k, q := range p.Qubits {
		switch upperPauli(p.Ops[k]) {
		case 'X':
			gs = append(gs, gate.H(q))
			zq = append(zq, q)
		case 'Y':
			gs = append(gs, gate.Sdg(q), gate.H(q))
			zq = append(zq, q)
		case 'Z':
			zq = append(zq, q)
		}
	}
	return gs, zq
}

// ExpectationPauli returns ⟨∏ σ⟩ for the unweighted string (ops letter k
// acting on qubits[k]); see ExpectationPauliString for the weighted form.
// It panics on malformed strings, like the other kernels; callers taking
// untrusted input validate with PauliString.Validate first.
func (s *State) ExpectationPauli(ops string, qubits []int) float64 {
	return s.ExpectationPauliString(PauliString{Ops: ops, Qubits: qubits})
}

// ExpectationPauliString returns Coeff·⟨∏ σ⟩ without mutating or copying
// the state. Z-only strings delegate to ExpectationPauliZString, so a
// unit-weight Z string is bit-identical with that kernel.
func (s *State) ExpectationPauliString(p PauliString) float64 {
	if len(p.Ops) != len(p.Qubits) {
		panic(fmt.Sprintf("sv: pauli string %q has %d ops for %d qubits", p.Ops, len(p.Ops), len(p.Qubits)))
	}
	for _, q := range p.Qubits {
		if q < 0 || q >= s.N {
			panic(fmt.Sprintf("sv: pauli qubit %d out of range [0,%d)", q, s.N))
		}
	}
	flip, sign, numY := p.Masks()
	if flip == 0 {
		// Z/I only: the established XOR-mask kernel.
		var zq []int
		for k, q := range p.Qubits {
			if upperPauli(p.Ops[k]) == 'Z' {
				zq = append(zq, q)
			}
		}
		return p.Coefficient() * s.ExpectationPauliZString(zq)
	}
	// Each index pairs with its flip partner j = i⊕flip, and the two terms
	// are Hermitian conjugates up to the sign relation s(j) = (−1)^{numY}
	// s(i): their sum collapses to 2·Re (numY even) or ±2·Im (numY odd) of
	// one term. Sweeping only i < j halves the work; the global i^{numY}
	// phase folds into the ±2 factor, and the imaginary part (pure rounding
	// noise for a Hermitian P) is never materialized.
	useIm := numY%2 == 1
	acc := 0.0
	for i, a := range s.Amps {
		j := i ^ flip
		if j < i {
			continue
		}
		b := s.Amps[j]
		// conj(b) · a
		v := real(b)*real(a) + imag(b)*imag(a)
		if useIm {
			v = real(b)*imag(a) - imag(b)*real(a)
		}
		if parity(i & sign) {
			acc -= v
		} else {
			acc += v
		}
	}
	factor := 2.0
	if m := numY % 4; m == 1 || m == 2 {
		factor = -2
	}
	return p.Coefficient() * factor * acc
}
