package noise

import (
	"math/rand"
	"testing"

	"hisvsim/internal/circuit"
)

// TestSpecializeUnfusedMatchesBoundCompile pins the template path for plans
// compiled with fusion off: specializing the placeholder plan must give the
// same program structure and the same trajectories, amplitude for amplitude,
// as compiling the bound circuit unfused.
func TestSpecializeUnfusedMatchesBoundCompile(t *testing.T) {
	c := circuit.QAOAAnsatz(4, 2)
	model := OnGates(Depolarizing(0.05), "rx") // leaves fusable cx·rz·cx runs
	tpl, err := Compile(c, model, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !tpl.Parametric() {
		t.Fatal("plan of a parameterized circuit reports no symbols")
	}
	env := map[string]float64{}
	for i, s := range c.Symbols() {
		env[s] = 0.2 + 0.31*float64(i)
	}
	got, err := tpl.Specialize(env)
	if err != nil {
		t.Fatal(err)
	}
	if got.Parametric() {
		t.Fatal("specialized plan still parametric")
	}
	bound, err := c.Bind(env)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Compile(bound, model, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Blocks() != want.Blocks() || got.Blocks() != c.NumGates() || got.Locations() != want.Locations() {
		t.Fatalf("specialized plan: %d blocks, %d locations; bound compile: %d blocks, %d locations (%d gates)",
			got.Blocks(), got.Locations(), want.Blocks(), want.Locations(), c.NumGates())
	}
	for seed := int64(0); seed < 8; seed++ {
		a, _, err := got.RunTrajectory(rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := want.RunTrajectory(rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Amps {
			if a.Amps[i] != b.Amps[i] {
				t.Fatalf("seed %d: amplitude %d = %v, bound compile gives %v", seed, i, a.Amps[i], b.Amps[i])
			}
		}
	}
}
