package noise

import (
	"fmt"
)

// Trajectory plans compiled from a parameterized circuit specialize the
// same way ideal fused templates do: channel insertion points depend only
// on gate names and qubits, so the step structure, fused-block boundaries
// and kernel plans of the placeholder compile are correct for every
// binding — only the numeric payloads of symbol-touched gate runs need
// rebinding. That makes noisy sweeps one Compile plus cheap Specialize
// calls per grid point, exactly mirroring fuse.Program.

// Parametric reports whether any gate run of the plan carries a symbolic
// parameter (channel steps never do).
func (p *Plan) Parametric() bool {
	for i := range p.steps {
		if s := &p.steps[i]; s.prog != nil && s.prog.TouchedBlocks() > 0 {
			return true
		}
	}
	return false
}

// Specialize returns a concrete plan for one binding: a shallow copy whose
// symbol-touched gate runs are specialized (fuse.Program.Specialize) and
// whose untouched steps — including every channel insertion and all kernel
// index tables — alias the template plan read-only. Concrete plans are
// returned unchanged. The receiver is never mutated, so one template plan
// serves concurrent specializations.
func (p *Plan) Specialize(env map[string]float64) (*Plan, error) {
	if !p.Parametric() {
		return p, nil
	}
	out := *p
	out.steps = append([]step(nil), p.steps...)
	for i := range out.steps {
		s := &out.steps[i]
		if s.prog == nil {
			continue
		}
		prog, err := s.prog.Specialize(env)
		if err != nil {
			return nil, fmt.Errorf("noise: %w", err)
		}
		s.prog = prog
	}
	return &out, nil
}
