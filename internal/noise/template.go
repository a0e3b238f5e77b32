package noise

import (
	"fmt"
)

// A plan compiled from a parameterized circuit is a template: channel
// insertion points depend only on gate names and qubits, so the step
// structure, fused-block boundaries and kernel plans of the placeholder
// compile are correct for every binding — only the numeric payloads of
// symbol-touched gate runs need rebinding (fuse.Program.Specialize). That
// makes a sweep one Compile plus cheap Specialize calls per grid point. A
// plan compiled without a noise model is a single gate-run step, so it is
// the ideal template as well.

// TouchedBlocks returns how many fused blocks a binding rebuilds, summed
// over the plan's gate runs (channel steps never carry symbols); the other
// Blocks() - TouchedBlocks() are shared read-only across bindings.
func (p *Plan) TouchedBlocks() int {
	n := 0
	for i := range p.steps {
		if s := &p.steps[i]; s.prog != nil {
			n += s.prog.TouchedBlocks()
		}
	}
	return n
}

// Parametric reports whether any gate run of the plan carries a symbolic
// parameter.
func (p *Plan) Parametric() bool { return p.TouchedBlocks() > 0 }

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
