// Command perfbench is the repository benchmark. It runs one workload over
// the real 49-region suite, checks the program's outputs against committed
// references, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload mp-search --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries per-layer metrics from spans the benchmark records around each
// layer's public functions, and a Chrome trace-event file is written under
// .bench_build/traces/. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"compisa/internal/explore"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state one workload invocation shares with the harness.
type run struct {
	seed    int64
	seconds float64
	trace   bool
	refs    *references
	update  bool // record observed outputs as the new references

	mu                sync.Mutex // guards attempted and failed
	attempted, failed int64
	e2e, layer        map[string]metric
	tr                *tracer
}

// fail counts n failed operations and logs why.
func (r *run) fail(n int64, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed += n
	fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
}

func (r *run) setE2E(name string, v float64, unit string)   { r.e2e[name] = metric{v, unit} }
func (r *run) setLayer(name string, v float64, unit string) { r.layer[name] = metric{v, unit} }

// pass is one timed repetition of a workload's measured phase. Its
// throughput is points over pointsWall, or over wall when that is zero.
type pass struct {
	wall, cpu  time.Duration
	points     int
	pointsWall time.Duration
	peakRSSMB  float64
}

// timePass runs f and records its wall time, process CPU time and peak
// resident memory.
func timePass(f func() int) pass {
	if err := resetPeakRSS(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: reset peak RSS: %v\n", err)
	}
	c0, t0 := processCPU(), time.Now()
	n := f()
	p := pass{wall: time.Since(t0), cpu: processCPU() - c0, points: n}
	var err error
	if p.peakRSSMB, err = peakRSSMB(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	return p
}

// timeSetups runs setup reps times and returns the median wall time in
// seconds; the caller keeps whatever the last repetition built.
func timeSetups(reps int, setup func()) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		runtime.GC()
		t0 := time.Now()
		setup()
		ts[i] = time.Since(t0).Seconds()
	}
	return median(ts)
}

// reportPasses sets the end-to-end metrics common to every workload from
// the untraced passes: medians of per-pass wall, CPU and throughput.
func (r *run) reportPasses(setupS float64, ps []pass) {
	var wall, cpu, rate, rss []float64
	for _, p := range ps {
		wall = append(wall, p.wall.Seconds())
		cpu = append(cpu, p.cpu.Seconds())
		rss = append(rss, p.peakRSSMB)
		pw := p.pointsWall
		if pw == 0 {
			pw = p.wall
		}
		rate = append(rate, float64(p.points)/pw.Seconds())
	}
	r.setE2E("setup_s", setupS, "s")
	r.setE2E("wall_s", median(wall), "s")
	r.setE2E("cpu_s", median(cpu), "s")
	r.setE2E("points_per_s", median(rate), "1/s")
	r.setE2E("peak_rss_mb", median(rss), "MiB")
}

// repeatPasses runs measured passes until there are at least minPasses and
// their summed wall time reaches the run's budget. A traced run needs only
// one untraced pass, as the baseline for tracing overhead.
func (r *run) repeatPasses(minPasses int, f func() pass) []pass {
	if r.trace {
		minPasses = 1
	}
	var ps []pass
	var total time.Duration
	for len(ps) < minPasses || (!r.trace && total.Seconds() < r.seconds) {
		p := f()
		fmt.Fprintf(os.Stderr, "perfbench: pass %d: wall %.3fs cpu %.3fs points %d peak RSS %.1fMiB\n",
			len(ps)+1, p.wall.Seconds(), p.cpu.Seconds(), p.points, p.peakRSSMB)
		ps = append(ps, p)
		total += p.wall
	}
	return ps
}

// layerNames lists every per-layer metric with its unit; a traced run
// reports all of them, zero where the workload does not exercise a layer.
var layerNames = []struct{ name, unit string }{
	{"cpu.profile_ms", "ms"}, {"cpu.profile_minstr_per_s", "Minstr/s"},
	{"cpu.exec_ms", "ms"}, {"cpu.exec_minstr_per_s", "Minstr/s"},
	{"cpu.predecode_ms", "ms"}, {"cpu.consume_self_ms", "ms"}, {"cpu.sim_instrs", "count"},
	{"workload.build_ms", "ms"}, {"compiler.compile_ms", "ms"}, {"check.analyze_ms", "ms"},
	{"perfmodel.scorer_us", "us"}, {"perfmodel.cycles_us", "us"}, {"power.energy_us", "us"},
	{"eval.evaluate_batch_ms", "ms"}, {"eval.profile_hit_rate", "ratio"},
	{"eval.candidate_hit_rate", "ratio"}, {"eval.model_evals", "count"},
	{"eval.quarantines", "count"}, {"eval.degraded_regions", "count"}, {"eval.parallel_eff", "ratio"},
	{"explore.candidates_ms", "ms"}, {"explore.search_ms", "ms"}, {"explore.search_share", "ratio"},
	{"serve.request_ms", "ms"}, {"serve.self_ms", "ms"},
	{"serve.cache_hits", "count"}, {"serve.coalesced", "count"}, {"serve.rejected", "count"},
	{"trace.overhead_s", "s"}, {"trace.spans", "count"},
}

// evalLayers reports the evaluation layer's counters and the parallel
// efficiency (CPU seconds per wall second per available CPU) of a phase.
func (r *run) evalLayers(db *explore.DB, wall, cpuTime time.Duration) {
	sn := db.StatsSnapshot()
	rate := func(hit, miss int64) float64 {
		if hit+miss == 0 {
			return 0
		}
		return float64(hit) / float64(hit+miss)
	}
	r.setLayer("eval.profile_hit_rate", rate(sn.ProfileHits, sn.ProfileMisses), "ratio")
	r.setLayer("eval.candidate_hit_rate", rate(sn.CandidateHits, sn.CandidateMisses), "ratio")
	r.setLayer("eval.model_evals", float64(sn.ModelEvals), "count")
	r.setLayer("eval.quarantines", float64(sn.Quarantines), "count")
	r.setLayer("eval.degraded_regions", float64(sn.DegradedRegions), "count")
	r.setLayer("eval.parallel_eff", cpuTime.Seconds()/(wall.Seconds()*float64(runtime.GOMAXPROCS(0))), "ratio")
}

// reportTrace fills the span-derived per-layer metrics, prints each layer's
// self time, and writes the Chrome trace file.
func (r *run) reportTrace(workload string, tracedWall, untracedWall time.Duration) {
	spans := r.tr.snapshot()
	ls := layers(spans)
	for _, name := range []string{"workload.build", "compiler.compile", "check.analyze", "cpu.predecode",
		"cpu.exec", "cpu.profile", "eval.evaluate_batch", "explore.candidates", "explore.search",
		"serve.request"} {
		r.setLayer(name+"_ms", ms(ls[name].total), "ms")
	}
	r.setLayer("serve.self_ms", ms(ls["serve.request"].own), "ms")
	r.setLayer("trace.overhead_s", (tracedWall - untracedWall).Seconds(), "s")
	r.setLayer("trace.spans", float64(len(spans)), "count")
	names := make([]string, 0, len(ls))
	for n := range ls {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return ls[names[i]].own > ls[names[j]].own })
	fmt.Fprintf(os.Stderr, "perfbench: self time per layer (traced wall %.2fs, untraced %.2fs):\n",
		tracedWall.Seconds(), untracedWall.Seconds())
	for _, n := range names {
		lt := ls[n]
		fmt.Fprintf(os.Stderr, "  %-22s %6d spans  total %10.1fms  self %10.1fms\n", n, lt.n, ms(lt.total), ms(lt.own))
	}
	path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", workload, r.seed))
	meta := map[string]any{"workload": workload, "seed": r.seed, "gomaxprocs": runtime.GOMAXPROCS(0)}
	if err := r.tr.writeChrome(path, meta); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: write trace: %v\n", err)
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: trace written to %s\n", path)
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// refsPath is the committed references file, relative to the repository root.
var refsPath = filepath.Join("perfbench", "refs.json")

var workloads = map[string]func(*run){
	"mp-search":  runMPSearch,
	"cold-dse":   runColdDSE,
	"serve-eval": runServeEval,
}

func main() {
	name := flag.String("workload", "", "workload: mp-search, cold-dse or serve-eval")
	seed := flag.Int64("seed", 1, "input seed (orders searches/organisations, generates request streams)")
	seconds := flag.Float64("seconds", 15, "minimum measured wall time; whole passes repeat until reached")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run reporting per-layer metrics")
	update := flag.Bool("update-refs", false, "rewrite this workload's section of "+refsPath+" from this run's outputs")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want mp-search, cold-dse or serve-eval)\n", *name)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1, not %d\n", *trace)
		os.Exit(2)
	}
	refs, err := loadRefs(refsPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	r := &run{seed: *seed, seconds: *seconds, trace: *trace == 1, refs: refs, update: *update,
		e2e: map[string]metric{}, layer: map[string]metric{}}
	if r.trace {
		r.tr = newTracer()
		for _, l := range layerNames {
			r.setLayer(l.name, 0, l.unit)
		}
	}
	h0 := sampleHost()
	wl(r)
	fmt.Fprintf(os.Stderr, "perfbench: host: %s, gomaxprocs %d\n", hostNoise(h0, sampleHost()), runtime.GOMAXPROCS(0))
	if r.update {
		if err := refs.save(refsPath); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "perfbench: references for %s written to %s\n", *name, refsPath)
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.e2e}
	if r.trace {
		res.Metrics = r.layer
	}
	if res.Attempted < 1 {
		res.Correct = false
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}
