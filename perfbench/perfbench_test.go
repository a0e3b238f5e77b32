package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"hisvsim/internal/core"
	"hisvsim/internal/qasm"
	"hisvsim/internal/service"
)

func TestSameSeedSameRequestStream(t *testing.T) {
	for _, wl := range workloads {
		a, b, c := wl.stream(7, 24), wl.stream(7, 24), wl.stream(8, 24)
		differs := false
		for i := range a {
			if !bytes.Equal(a[i].Body, b[i].Body) || a[i].Check != b[i].Check {
				t.Fatalf("%s: request %d differs between two streams of seed 7", wl.name, i)
			}
			differs = differs || !bytes.Equal(a[i].Body, c[i].Body)
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 generated the same stream", wl.name)
		}
	}
}

func TestColdWideNeverRepeatsAFingerprint(t *testing.T) {
	seen := map[string]string{}
	for _, r := range append(coldWarmup(3), coldWide(3, 90)...) {
		c, err := qasm.ParseToCircuit(r.qasm)
		if err != nil {
			t.Fatal(err)
		}
		if c.NumQubits != coldQubits {
			t.Fatalf("%s: %d qubits, want %d", r.ID, c.NumQubits, coldQubits)
		}
		fp := c.Fingerprint()
		if prev, ok := seen[fp]; ok {
			t.Fatalf("%s repeats the fingerprint of %s", r.ID, prev)
		}
		seen[fp] = r.ID
	}
}

// The whole catalogue must stay resident in a default-configured service:
// otherwise hot-mix would measure evictions and re-simulation. The service
// charges an entry of q qubits 24 B per amplitude (16 B amplitude, 8 B
// sampler CDF) plus 1 KiB of plan slack.
func TestHotCatalogueFitsDefaultCache(t *testing.T) {
	var bytes int64
	for _, e := range hotCatalogue() {
		bytes += int64(24)<<uint(e.Qubits) + 1024
	}
	if bytes > 256<<20 {
		t.Fatalf("catalogue costs %d MiB, more than the 256 MiB default cache", bytes>>20)
	}
	svc := service.New(service.Config{})
	defer svc.Close()
	warm := hotWarmup(1)
	for _, r := range warm {
		req, err := service.ParseRequest(r.Body)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Do(context.Background(), *req); err != nil {
			t.Fatal(err)
		}
	}
	st := svc.Stats()
	if st.CacheEntries != len(warm) || st.CacheBytes != bytes {
		t.Fatalf("cache holds %d entries / %d B after warm-up, want %d / %d", st.CacheEntries, st.CacheBytes, len(warm), bytes)
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median of 1..10 = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of {3,1,2} = %v, want 2", got)
	}
	if !math.IsNaN(percentile(nil, 50)) || !math.IsNaN(median(nil)) {
		t.Error("empty samples must give NaN")
	}
	if xs[0] != 10 {
		t.Error("percentile sorted its input in place")
	}
}

// jobJSON renders a final job body the way the service would for an
// answer.
func jobJSON(t *testing.T, a answer) []byte {
	t.Helper()
	var j jobBody
	j.Result.answer = a
	b, err := json.Marshal(j)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCheckerFlagsCorruptedResults(t *testing.T) {
	ctx := context.Background()
	k := newChecker()

	// hot-mix: the exact answer passes; one count moved or one ulp off an
	// observable fails.
	hot := hotMix(5, 1)[0]
	ref, err := k.reference(ctx, hot.circ)
	if err != nil {
		t.Fatal(err)
	}
	good := toAnswer(core.EvaluateState(ref.st, ref.sampler, hot.spec), hot.circ.NumQubits)
	if msg, err := k.check(ctx, "hot-mix", hot, jobJSON(t, good)); err != nil || msg != "" {
		t.Fatalf("exact hot-mix answer rejected: %q %v", msg, err)
	}
	bad := good
	bad.Observables = append([]obsValue(nil), good.Observables...)
	bad.Observables[0].Value = math.Nextafter(bad.Observables[0].Value, 2)
	if msg, _ := k.check(ctx, "hot-mix", hot, jobJSON(t, bad)); msg == "" {
		t.Error("one-ulp observable error not flagged")
	}
	bad = good
	bad.Counts = map[string]int{}
	for key, c := range good.Counts {
		bad.Counts[key] = c
	}
	for key := range bad.Counts {
		bad.Counts[key]++
		break
	}
	if msg, _ := k.check(ctx, "hot-mix", hot, jobJSON(t, bad)); msg == "" {
		t.Error("corrupted count not flagged")
	}

	// noisy-fleet dm: trace off by 1e-6 fails.
	var dmReq *request
	for _, r := range noisyFleet(5, len(noisyCycle)) {
		if r.Class == "dm" {
			dmReq = r
		}
	}
	c, err := qasm.ParseToCircuit(dmReq.qasm)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.EvaluateContext(ctx, c, dmReq.opts, dmReq.spec)
	if err != nil {
		t.Fatal(err)
	}
	dm := toAnswer(&rep.Readouts, dmQubits)
	if msg, _ := k.check(ctx, "noisy-fleet", dmReq, jobJSON(t, dm)); msg != "" {
		t.Fatalf("exact dm answer rejected: %s", msg)
	}
	dm.Marginals = [][]float64{append([]float64(nil), dm.Marginals[0]...)}
	dm.Marginals[0][0] += 1e-6
	if msg, _ := k.check(ctx, "noisy-fleet", dmReq, jobJSON(t, dm)); msg == "" {
		t.Error("dm trace 1+1e-6 not flagged")
	}
}

// BENCHMARK.json at the repository root must list exactly the metrics
// this program prints in its final line.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside this directory")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if strings.Join(names, ",") != strings.Join(ours, ",") {
		t.Errorf("workloads %v, program has %v", names, ours)
	}
	var e2e []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if strings.Join(e2e, ",") != strings.Join(endToEndNames, ",") {
		t.Errorf("end_to_end %v, program prints %v", e2e, endToEndNames)
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics, program prints %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i][0] || m.Unit != perLayer[i][1] {
			t.Errorf("per_layer[%d] = %s (%s), program prints %s (%s)", i, m.Name, m.Unit, perLayer[i][0], perLayer[i][1])
		}
	}
}
