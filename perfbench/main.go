// Command perfbench is the repository's host-time benchmark. It runs one
// named workload at a given seed through the simulator's public entry points
// (core.System loads and stores on a sim.Kernel, replay.Drive over a
// pool.Pool, numa.Fabric Submit/Step/Poll), checks the simulated outputs, and
// prints one JSON object as its last line of standard output.
//
// Usage:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the object carries the end-to-end metrics, measured with
// profiling off. With --trace 1 it carries the per-layer metrics: CPU and
// allocation shares folded onto repository packages, host time at the
// benchmark's own call boundaries, and exact simulated counts.
//
// A run is a sequence of fixed-size blocks of requests, as many as fit in
// --seconds (at least minBlocks). Per-block figures are reported as medians
// over the blocks, so a run's figures do not depend on how many blocks fit.
// Block and set-up times are corrected for the host's speed at the moment
// they were taken (see hostref.go).
// The exact counts and the determinism digest are taken after the first
// minBlocks blocks, so they repeat exactly at one seed whatever the host
// speed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// minBlocks is the number of blocks every run completes whatever the time
// budget; the exact counts and the digest cover exactly these blocks.
const minBlocks = 4

// A run builds its system at least minSetups times, and more while the
// builds took less than setupBudget in all, up to maxSetups; setup_s is
// the median, and only the last system is measured.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = 1500 * time.Millisecond
)

// ledger is a run's request conservation account. Failed folds every
// non-completed terminal outcome: shed, expired, throttled and typed
// failures (driver errors for the module workloads).
type ledger struct {
	submitted, completed, failed uint64
	// unresolved counts submitted requests with no terminal outcome; it
	// must be zero after drain.
	unresolved uint64
	// ackedLost counts acknowledged writes that neither stayed readable
	// nor ended in a typed outcome; it must be zero.
	ackedLost uint64
}

// workload is one benchmark workload after set-up.
type workload interface {
	// block runs one fixed-size unit of requests and returns how many
	// reached a terminal outcome in it.
	block() (int, error)
	// simNow is the simulated time advanced since set-up.
	simNow() float64
	// counters returns cumulative exact counts (differenced against the
	// post-setup snapshot) and gauges (reported as read).
	counters() (ctr, gauge map[string]float64)
	// digest hashes the completion stream so far.
	digest() uint64
	// finish drains the workload, audits the system and closes the ledger.
	finish() (ledger, error)
}

// errExhausted reports that a workload's finite input ran out; a run that
// has completed minBlocks blocks ends early on it.
var errExhausted = errors.New("workload input exhausted")

// spec names a workload and builds it.
type spec struct {
	name  string
	setup func(seed uint64, workers int) (workload, error)
	// shape asserts the workload still exercises its layers, given the
	// exact counts over the first minBlocks blocks.
	shape func(m map[string]float64) error
}

var specs = []spec{
	{"module-miss", setupModuleMiss, shapeModuleMiss},
	{"module-hit", setupModuleHit, shapeModuleHit},
	{"socket-replay", setupSocketReplay, shapeSocketReplay},
	{"fabric-faults", setupFabricFaults, shapeFabricFaults},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// workers is the pool and fabric epoch-worker count: one per CPU the
// process may use, capped at the two the benchmark host provides.
func workers() int {
	n := runtime.GOMAXPROCS(0)
	if n > 2 {
		n = 2
	}
	return n
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name: module-miss, module-hit, socket-replay, fabric-faults")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "1: print per-layer metrics from a profiled run")
	flag.Parse()
	sp, ok := findSpec(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	if runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2)
	}
	res, err := run(sp, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", sp.name, *seed, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// blockSample is one block's host-side cost.
type blockSample struct {
	ops        int
	wall, cpu  float64 // seconds
	sim        float64 // simulated seconds advanced
	allocBytes uint64
	traced     bool
	// wallScale and cpuScale turn this block's host wall and CPU seconds
	// into nominal seconds.
	wallScale, cpuScale float64
}

// run sets the workload up, measures blocks for budget, checks the outputs
// and assembles the metrics.
func run(sp spec, seed uint64, budget time.Duration, traced bool) (result, error) {
	ref, err := newHostRef()
	if err != nil {
		return result{}, err
	}
	var w workload
	var setups []float64
	var spent time.Duration
	for len(setups) < maxSetups && (len(setups) < minSetups || spent < setupBudget) {
		w = nil
		runtime.GC()
		t0 := time.Now()
		w, err = sp.setup(seed, workers())
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0)
		spent += d
		setups = append(setups, d.Seconds())
	}
	runtime.GC()
	before := ref.pass()
	refs := []float64{before.wall}

	var prof *profiler
	if traced {
		prof = newProfiler()
	}
	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	baseCtr, _ := w.counters()

	var samples []blockSample
	var layer map[string]float64
	var dig uint64
	deadline := time.Now().Add(budget)
	for b := 0; b < minBlocks || time.Now().Before(deadline); b++ {
		// Traced runs alternate profiled and unprofiled segments so the
		// tracing overhead compares blocks of the same run.
		on := traced && (b/traceSegment)%2 == 0
		if on {
			if err := prof.start(); err != nil {
				return result{}, err
			}
		}
		s, err := measureBlock(w)
		if on {
			if err := prof.stop(); err != nil {
				return result{}, err
			}
		}
		if errors.Is(err, errExhausted) && b >= minBlocks {
			break
		}
		if err != nil {
			return result{}, fmt.Errorf("block %d: %w", b, err)
		}
		after := ref.pass()
		refs = append(refs, after.wall)
		s.traced = on
		s.wallScale, s.cpuScale = scales(before, after)
		before = after
		samples = append(samples, s)
		if b+1 == minBlocks {
			ctr, gauge := w.counters()
			layer = layerCounts(baseCtr, ctr, gauge)
			dig = w.digest()
		}
	}
	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)
	// The heap the system holds after a full collection: unlike the peak
	// resident set, it does not depend on how far the collector lagged
	// behind allocation on a busy host.
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)

	led, err := w.finish()
	if err != nil {
		return result{}, fmt.Errorf("correctness: %w", err)
	}
	if err := checkLedger(led); err != nil {
		return result{}, fmt.Errorf("correctness: %w", err)
	}
	// The shape holds over the whole run; the printed counts cover the
	// first minBlocks blocks only, so that they repeat exactly.
	ctr, gauge := w.counters()
	whole := layerCounts(baseCtr, ctr, gauge)
	whole["ledger.failed_frac"] = float64(led.failed) / float64(led.submitted)
	if err := sp.shape(whole); err != nil {
		return result{}, fmt.Errorf("workload shape: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: digest %016x after %d blocks; %d blocks measured\n",
		sp.name, seed, dig, minBlocks, len(samples))

	res := result{Correct: true, Attempted: led.submitted, Failed: led.failed, Metrics: map[string]metric{}}
	if !traced {
		var ops, rawOps, sim, cpu, alloc []float64
		for _, s := range samples {
			ops = append(ops, float64(s.ops)/(s.wall*s.wallScale))
			rawOps = append(rawOps, float64(s.ops)/s.wall)
			sim = append(sim, s.sim/(s.wall*s.wallScale))
			cpu = append(cpu, s.cpu*s.cpuScale)
			alloc = append(alloc, float64(s.allocBytes)/1e6)
		}
		// Set-ups are corrected by the run's median reference pass rather
		// than by the passes around each: a pass right after a set-up runs
		// while the collector and scavenger return the set-up's garbage,
		// and reads slow for the program's sake rather than the host's.
		res.Metrics["setup_s"] = metric{median(setups) * refNominal.Seconds() / median(refs), "s"}
		res.Metrics["ops_per_s"] = metric{median(ops), "1/s"}
		res.Metrics["sim_s_per_s"] = metric{median(sim), "s/s"}
		res.Metrics["cpu_s"] = metric{median(cpu), "s"}
		res.Metrics["alloc_MB"] = metric{median(alloc), "MB"}
		res.Metrics["heap_live_MB"] = metric{float64(live.HeapAlloc) / 1e6, "MB"}
		fmt.Fprintf(os.Stderr, "perfbench: uncorrected host figures: setup_s %.4g, ops_per_s %.6g; reference pass median %.4g ms (nominal %.4g ms)\n",
			median(setups), median(rawOps), 1e3*median(refs), 1e3*refNominal.Seconds())
		return res, nil
	}

	shares, err := prof.shares()
	if err != nil {
		return result{}, err
	}
	for k, v := range shares {
		res.Metrics[k] = metric{v, "%"}
	}
	var on, off []float64
	for _, s := range samples {
		if s.traced {
			on = append(on, float64(s.ops)/(s.wall*s.wallScale))
		} else {
			off = append(off, float64(s.ops)/(s.wall*s.wallScale))
		}
	}
	res.Metrics["host.ref_ms"] = metric{1e3 * median(refs), "ms"}
	res.Metrics["max_rss_MB"] = metric{maxRSSMB() - ref.rssMB, "MB"}
	res.Metrics["tracing.ops_per_s_on"] = metric{median(on), "1/s"}
	res.Metrics["tracing.ops_per_s_off"] = metric{median(off), "1/s"}
	overhead := 0.0
	if len(on) > 0 && len(off) > 0 {
		overhead = 100 * (median(off)/median(on) - 1)
	}
	res.Metrics["tracing.overhead_pct"] = metric{overhead, "%"}
	res.Metrics["runtime.gc_cycles"] = metric{float64(gc1.NumGC - gc0.NumGC), "count"}
	res.Metrics["runtime.gc_pause_ms"] = metric{float64(gc1.PauseTotalNs-gc0.PauseTotalNs) / 1e6, "ms"}
	if d, ok := w.(interface{ decodeOnly() (time.Duration, error) }); ok {
		if boundaries.replayDecode, err = d.decodeOnly(); err != nil {
			return result{}, fmt.Errorf("decode-only pass: %w", err)
		}
	}
	for k, v := range boundaryMetrics() {
		res.Metrics[k] = v
	}
	for _, k := range countNames {
		res.Metrics[k] = metric{layer[k], countUnit(k)}
	}
	res.Metrics["ledger.failed_frac"] = metric{whole["ledger.failed_frac"], "ratio"}
	return res, nil
}

// traceSegment is how many consecutive blocks a traced run profiles (or
// not) before switching; minBlocks blocks then hold both kinds.
const traceSegment = 2

func measureBlock(w workload) (blockSample, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	s0 := w.simNow()
	t0 := time.Now()
	n, err := w.block()
	wall := time.Since(t0).Seconds()
	s1 := w.simNow()
	c1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return blockSample{}, err
	}
	if n <= 0 {
		return blockSample{}, errors.New("block retired no requests")
	}
	return blockSample{ops: n, wall: wall, cpu: c1 - c0, sim: s1 - s0, allocBytes: m1.TotalAlloc - m0.TotalAlloc}, nil
}

func checkLedger(l ledger) error {
	if l.submitted == 0 {
		return errors.New("no requests submitted")
	}
	if l.unresolved != 0 || l.submitted != l.completed+l.failed {
		return fmt.Errorf("conservation: submitted %d != completed %d + failed %d (%d unresolved)",
			l.submitted, l.completed, l.failed, l.unresolved)
	}
	if l.ackedLost != 0 {
		return fmt.Errorf("%d acknowledged writes lost", l.ackedLost)
	}
	return nil
}

func cpuSeconds() float64 { return cpuClock(clockProcessCPU) }

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
