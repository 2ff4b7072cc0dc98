package main

import (
	"strings"
	"time"

	"nvdimmc/internal/core"
)

// countNames are the exact simulated counts every traced run prints, for
// every workload (zero where the workload has no such layer). They are
// modelled behaviour: a change meant only to speed the simulator up must
// leave them identical.
var countNames = []string{
	"sim.events",
	"nvdc.hits", "nvdc.misses", "nvdc.hit_ratio", "nvdc.writebacks", "nvdc.cachefills",
	"nvmc.windows_seen", "nvmc.windows_used", "nvmc.window_use_ratio",
	"ftl.host_writes", "ftl.gc_writes", "ftl.write_amp", "ftl.grown_bad",
	"nand.programs", "nand.erases", "nand.program_fails",
	"pool.epochs", "pool.completed", "pool.shed", "pool.expired", "pool.held_peak",
	"pool.sim_p99_us", "pool.sim_MBps",
	"numa.remote_ratio", "numa.retries", "numa.sim_p99_us",
	"fault.fired", "replay.bytes_per_op", "replay.lag_us",
}

func countUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_amp"):
		return "ratio"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_MBps"):
		return "MB/s"
	case strings.HasSuffix(name, "bytes_per_op"):
		return "B"
	}
	return "count"
}

// addSystem folds one module's cumulative counters into ctr.
func addSystem(ctr map[string]float64, s *core.System) {
	ctr["sim.events"] += float64(s.K.Processed())
	ds := s.Driver.Stats()
	ctr["nvdc.hits"] += float64(ds.Hits)
	ctr["nvdc.misses"] += float64(ds.Misses)
	ctr["nvdc.writebacks"] += float64(ds.Writebacks)
	ctr["nvdc.cachefills"] += float64(ds.Cachefills)
	ns := s.NVMC.Stats()
	ctr["nvmc.windows_seen"] += float64(ns.WindowsSeen)
	ctr["nvmc.windows_used"] += float64(ns.WindowsUsed)
	host, gc, _, bad := s.FTL.Stats()
	ctr["ftl.host_writes"] += float64(host)
	ctr["ftl.gc_writes"] += float64(gc)
	ctr["ftl.grown_bad"] += float64(bad)
	_, programs, erases, fails := s.NAND.Stats()
	ctr["nand.programs"] += float64(programs)
	ctr["nand.erases"] += float64(erases)
	ctr["nand.program_fails"] += float64(fails)
	ctr["fault.fired"] += float64(s.Faults.TotalFired())
}

// layerCounts differences the cumulative counters against the post-setup
// snapshot, adds the gauges and derives the ratios.
func layerCounts(base, cur, gauge map[string]float64) map[string]float64 {
	m := map[string]float64{}
	for k, v := range cur {
		m[k] = v - base[k]
	}
	for k, v := range gauge {
		m[k] = v
	}
	m["nvdc.hit_ratio"] = ratio(m["nvdc.hits"], m["nvdc.hits"]+m["nvdc.misses"])
	m["nvmc.window_use_ratio"] = ratio(m["nvmc.windows_used"], m["nvmc.windows_seen"])
	m["ftl.write_amp"] = ratio(m["ftl.host_writes"]+m["ftl.gc_writes"], m["ftl.host_writes"])
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// span accumulates host time at one of the benchmark's call boundaries.
type span struct {
	calls int
	total time.Duration
}

// boundaries holds the host time the benchmark measures around its own
// calls into each layer. It is recorded only while a traced run profiles,
// so untraced runs pay nothing for it.
var boundaries struct {
	on                             bool
	simRun, replayDrive            span
	numaSubmit, numaStep, numaPoll span
	replayDecode                   time.Duration
}

// timed runs fn, charging its host time to sp while tracing is on.
func timed(sp *span, fn func()) {
	if !boundaries.on {
		fn()
		return
	}
	t0 := time.Now()
	fn()
	sp.total += time.Since(t0)
	sp.calls++
}

func boundaryMetrics() map[string]metric {
	b := &boundaries
	perCall := func(sp span) float64 {
		if sp.calls == 0 {
			return 0
		}
		return sp.total.Seconds() * 1e6 / float64(sp.calls)
	}
	return map[string]metric{
		"sim.run_s":         {b.simRun.total.Seconds(), "s"},
		"replay.drive_s":    {b.replayDrive.total.Seconds(), "s"},
		"replay.decode_s":   {b.replayDecode.Seconds(), "s"},
		"numa.submit_us":    {perCall(b.numaSubmit), "us"},
		"numa.submit_calls": {float64(b.numaSubmit.calls), "count"},
		"numa.step_us":      {perCall(b.numaStep), "us"},
		"numa.step_calls":   {float64(b.numaStep.calls), "count"},
		"numa.poll_us":      {perCall(b.numaPoll), "us"},
		"numa.poll_calls":   {float64(b.numaPoll.calls), "count"},
	}
}
