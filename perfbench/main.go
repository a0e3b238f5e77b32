// Command perfbench is the repository benchmark: it boots hisvsimd
// in-process on loopback HTTP, drives one seeded closed-loop workload
// against it for a fixed time, checks every sampled answer off the clock,
// and prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) ending with one JSON result line. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hisvsim/internal/service"
)

// processStart stamps process start for the first set-up measurement.
var processStart = time.Now()

// workload is one traffic mix; README.md gives the reason for each.
type workload struct {
	name      string
	clients   int  // closed-loop clients (never more than nproc)
	clustered bool // coordinator in front of two workers
	perSecond int  // expected requests per second; twice this many are generated
	stream    func(seed int64, n int) []*request
	warmup    func(seed int64) []*request
}

var workloads = []workload{
	{"cold-wide", 1, false, 5, coldWide, coldWarmup},
	{"hot-mix", 2, false, 1000, hotMix, hotWarmup},
	{"noisy-fleet", 1, true, 3, noisyFleet, noisyWarmup},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// setupRounds is how often set-up runs; setup_s is their median.
const setupRounds = 3

type config struct {
	workload workload
	seed     int64
	seconds  int
	trace    bool
	outDir   string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: cold-wide, hot-mix or noisy-fleet")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "measured seconds per window")
	trace := fs.Int("trace", 0, "1 = traced run emitting the per-layer metrics")
	outDir := fs.String("out", filepath.Join(".bench_build", "results"), "directory for the result and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload {cold-wide|hot-mix|noisy-fleet}, --seconds ≥ 1, --trace 0|1 (%v)\n", err)
		return 2
	}
	cfg := config{workload: wl, seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir}
	res, err := benchmark(context.Background(), cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := res.write(cfg, stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if len(res.Mismatches) > 0 {
		for _, m := range res.Mismatches {
			fmt.Fprintf(stderr, "perfbench: MISMATCH %s\n", m)
		}
		return 1
	}
	return 0
}

// metric is one reported value with its unit and sample count.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// result is everything one run reports.
type result struct {
	Workload   string            `json:"workload"`
	Trace      bool              `json:"trace"`
	Seconds    int               `json:"seconds"`
	Machine    machine           `json:"machine"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Mismatches []string          `json:"mismatches,omitempty"`
	Errors     []string          `json:"errors,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
	Gated      []string          `json:"gated"` // the names printed in the final line
	Notes      []string          `json:"notes,omitempty"`
	Samples    []sample          `json:"samples"` // untraced window, in completion order
	Spans      []span            `json:"spans,omitempty"`
}

func (r *result) set(name string, v float64, unit string, n int) {
	r.Metrics[name] = metric{Value: v, Unit: unit, N: n}
}

// sample is one timed request of the untraced window.
type sample struct {
	Req   string  `json:"req"`
	Class string  `json:"class"`
	MS    float64 `json:"ms"`
}

// outcome is one request's fate in a timed window.
type outcome struct {
	req   *request
	ms    float64 // submit → result bytes read
	jobID string
	raw   []byte // final job body, kept for checked requests
	stage []byte // stage trace body (traced window only)
	err   error
}

// window drives the closed loop: wl.clients goroutines each send the next
// request of the stream, wait for its result, and repeat until the
// deadline. Requests sent before the deadline finish and count.
func window(ctx context.Context, f *fleet, wl workload, reqs []*request, next *atomic.Int64, seconds int, rec *recorder) ([]outcome, time.Duration, error) {
	var (
		mu        sync.Mutex
		outs      []outcome
		exhausted atomic.Bool
		wg        sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds) * time.Second)
	for c := 0; c < wl.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					exhausted.Store(true)
					return
				}
				o := send(ctx, f, reqs[i], rec)
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if exhausted.Load() {
		return nil, 0, fmt.Errorf("%s: request stream exhausted after %d requests; raise perSecond", wl.name, len(reqs))
	}
	return outs, elapsed, nil
}

// send runs one request. With a recorder it also fetches the job's stage
// trace inside the loop, as a traced client would.
func send(ctx context.Context, f *fleet, r *request, rec *recorder) outcome {
	root := rec.start("request", r.ID, 0)
	defer rec.end(root)
	t := time.Now()
	id, raw, err := f.client.submitWait(ctx, f.URL, r.Body, rec, r.ID, root)
	o := outcome{req: r, ms: float64(time.Since(t).Nanoseconds()) / 1e6, jobID: id, err: err}
	if err == nil && r.Check {
		o.raw = raw
	}
	if err == nil && rec != nil {
		sp := rec.start("http.trace", r.ID, root)
		code, body, terr := f.client.get(ctx, f.URL+"/v1/jobs/"+id+"/trace")
		rec.end(sp)
		if terr == nil && code == 200 {
			o.stage = body
		}
	}
	return o
}

// setup boots the fleet, generates the inputs and sends the warm-up
// requests. It runs setupRounds times; all but the last fleet are torn
// down, and setup_s is the median round.
func setup(ctx context.Context, cfg config, budget int) (*fleet, []*request, []outcome, []float64, error) {
	var rounds []float64
	for round := 0; round < setupRounds; round++ {
		t0 := time.Now()
		if round == 0 {
			t0 = processStart
		}
		f, err := bootFleet(ctx, cfg.workload.clustered)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		reqs := cfg.workload.stream(cfg.seed, budget)
		var warm []outcome
		for _, r := range cfg.workload.warmup(cfg.seed) {
			o := send(ctx, f, r, nil)
			if o.err != nil {
				f.close()
				return nil, nil, nil, nil, fmt.Errorf("warm-up %s: %w", r.ID, o.err)
			}
			warm = append(warm, o)
		}
		rounds = append(rounds, time.Since(t0).Seconds())
		if round == setupRounds-1 {
			return f, reqs, warm, rounds, nil
		}
		f.close()
		// Collect this round's fleet and inputs before the next round, so
		// repeated set-up does not inflate peak_rss_mib.
		runtime.GC()
	}
	panic("unreachable")
}

func benchmark(ctx context.Context, cfg config, log io.Writer) (*result, error) {
	wl := cfg.workload
	// A traced run splits its measured time into an untraced and a traced
	// window of half the seconds each.
	span, windows := cfg.seconds, 1
	if cfg.trace {
		span, windows = max(1, cfg.seconds/2), 2
	}
	budget := 2*wl.perSecond*span*windows + 64
	f, reqs, warm, setupRounds, err := setup(ctx, cfg, budget)
	if err != nil {
		return nil, err
	}
	defer f.close()
	fmt.Fprintf(log, "perfbench: %s set up in %.3fs (median of %v)\n", wl.name, median(setupRounds), setupRounds)

	res := &result{Workload: wl.name, Trace: cfg.trace, Seconds: cfg.seconds,
		Machine: hostMachine(cfg.seed), Metrics: map[string]metric{}}
	var next atomic.Int64
	outs, elapsed, err := window(ctx, f, wl, reqs, &next, span, nil)
	if err != nil {
		return nil, err
	}
	var traced []outcome
	var tracedElapsed time.Duration
	var rec *recorder
	var before, after service.Stats
	if cfg.trace {
		rec = newRecorder()
		before = f.stats()
		traced, tracedElapsed, err = window(ctx, f, wl, reqs, &next, span, rec)
		if err != nil {
			return nil, err
		}
		after = f.stats()
	}

	// Off the clock: every sampled answer (warm-up answers included).
	k := newChecker()
	checked := 0
	for _, o := range append(append(append([]outcome(nil), warm...), outs...), traced...) {
		if o.err != nil || !o.req.Check {
			continue
		}
		checked++
		msg, err := k.check(ctx, wl.name, o.req, o.raw)
		if err != nil {
			return nil, fmt.Errorf("check %s: %w", o.req.ID, err)
		}
		if msg != "" {
			res.Mismatches = append(res.Mismatches, o.req.ID+": "+msg)
		}
	}
	res.Notes = append(res.Notes, fmt.Sprintf("checked %d answers off the clock", checked))

	endToEnd(res, wl, outs, elapsed, setupRounds)
	res.Gated = endToEndNames
	if cfg.trace {
		tally(res, traced)
		tracedJPS := float64(countOK(traced)) / tracedElapsed.Seconds()
		res.set("trace.overhead_frac", 1-tracedJPS/res.Metrics["jobs_per_s"].Value, "frac", len(traced))
		if err := serviceLayer(ctx, res, f, traced, before, after); err != nil {
			return nil, err
		}
		f.close() // the probes boot their own fleets; free this one's memory first
		if err := probeLayers(ctx, res, cfg.seed, rec); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		res.Spans = rec.all()
		res.Gated = perLayerNames()
	}
	res.Failed += len(res.Mismatches)
	res.set("failed_frac", float64(res.Failed)/float64(max(res.Attempted, 1)), "frac", res.Attempted)
	return res, nil
}

func countOK(outs []outcome) int {
	n := 0
	for _, o := range outs {
		if o.err == nil {
			n++
		}
	}
	return n
}

// endToEndNames are the metrics every workload reports in its final line
// (BENCHMARK.json end_to_end). The others are printed with their sample
// counts but exist only on some workloads.
var endToEndNames = []string{"latency_p50_ms", "latency_p90_ms", "jobs_per_s", "setup_s", "peak_rss_mib"}

// tally counts a window's attempts and failures into res.
func tally(res *result, outs []outcome) {
	for _, o := range outs {
		res.Attempted++
		if o.err != nil {
			res.Failed++
			res.Errors = append(res.Errors, o.req.ID+": "+o.err.Error())
		}
	}
}

// endToEnd sets the end-to-end metrics of the untraced window.
func endToEnd(res *result, wl workload, outs []outcome, elapsed time.Duration, setupRounds []float64) {
	tally(res, outs)
	var lat []float64
	traj := 0
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		lat = append(lat, o.ms)
		res.Samples = append(res.Samples, sample{o.req.ID, o.req.Class, o.ms})
		if o.req.spec.Trajectories > 0 && o.req.opts.Backend != "dm" {
			traj += o.req.spec.Trajectories
		}
	}
	byClass := map[string][]float64{}
	for _, o := range outs {
		if o.err == nil {
			byClass[o.req.Class] = append(byClass[o.req.Class], o.ms)
		}
	}
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		res.Notes = append(res.Notes, fmt.Sprintf("class %-16s p50 %9.3f ms  p90 %9.3f ms  n=%d",
			c, percentile(byClass[c], 50), percentile(byClass[c], 90), len(byClass[c])))
	}
	n := len(lat)
	res.set("latency_p50_ms", percentile(lat, 50), "ms", n)
	res.set("latency_p90_ms", percentile(lat, 90), "ms", n)
	if wl.name == "hot-mix" {
		res.set("latency_p99_ms", percentile(lat, 99), "ms", n)
	}
	res.set("jobs_per_s", float64(n)/elapsed.Seconds(), "1/s", n)
	if wl.name == "noisy-fleet" {
		res.set("traj_per_s", float64(traj)/elapsed.Seconds(), "1/s", n)
	}
	res.set("setup_s", median(setupRounds), "s", len(setupRounds))
	res.set("peak_rss_mib", peakRSSMiB(), "MiB", 1)
}

// write prints every metric by name with unit and sample count, the
// machine block, and the final JSON line; it also saves the full result
// (spans included) under cfg.outDir.
func (r *result) write(cfg config, w io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "workload %s seed %d seconds %d trace %v\n", r.Workload, cfg.seed, r.Seconds, r.Trace)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "  %-36s %14.6g %-8s n=%d\n", n, m.Value, m.Unit, m.N)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	mj, _ := json.Marshal(r.Machine)
	fmt.Fprintf(w, "machine %s\n", mj)

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	tag := "run"
	if r.Trace {
		tag = "trace"
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d-%s.json", r.Workload, cfg.seed, tag))
	full, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, full, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "saved %s\n", path)

	final := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: len(r.Mismatches) == 0, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: map[string]map[string]any{}}
	for _, n := range r.Gated {
		m, ok := r.Metrics[n]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s missing or not finite", n)
		}
		final.Metrics[n] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
