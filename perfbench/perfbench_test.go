package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

// shortRun sets a workload up, runs minBlocks blocks, and returns the
// completion-stream digest with the exact counts over those blocks.
func shortRun(t *testing.T, sp spec, seed uint64, workers int) (uint64, map[string]float64) {
	t.Helper()
	w, err := sp.setup(seed, workers)
	if err != nil {
		t.Fatalf("%s setup: %v", sp.name, err)
	}
	base, _ := w.counters()
	for b := 0; b < minBlocks; b++ {
		if _, err := w.block(); err != nil {
			t.Fatalf("%s block %d: %v", sp.name, b, err)
		}
	}
	ctr, gauge := w.counters()
	counts := layerCounts(base, ctr, gauge)
	dig := w.digest()
	led, err := w.finish()
	if err != nil {
		t.Fatalf("%s finish: %v", sp.name, err)
	}
	if err := checkLedger(led); err != nil {
		t.Fatalf("%s: %v", sp.name, err)
	}
	return dig, counts
}

// TestDigestDeterministic checks that a workload's simulated outputs — the
// completion stream and every exact count — repeat at one seed, and for the
// pooled workloads also at one and at two epoch workers.
func TestDigestDeterministic(t *testing.T) {
	const seed = 5
	for _, sp := range specs {
		sp := sp
		t.Run(sp.name, func(t *testing.T) {
			dig, counts := shortRun(t, sp, seed, 1)
			variants := []int{1}
			if sp.name == "socket-replay" || sp.name == "fabric-faults" {
				variants = append(variants, 2)
			}
			for _, workers := range variants {
				d, c := shortRun(t, sp, seed, workers)
				if d != dig {
					t.Errorf("workers=%d: digest %016x, first run %016x", workers, d, dig)
				}
				for _, k := range countNames {
					if c[k] != counts[k] {
						t.Errorf("workers=%d: %s = %v, first run %v", workers, k, c[k], counts[k])
					}
				}
			}
			t.Logf("%s seed %d: digest %016x", sp.name, seed, dig)
		})
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"nvdimmc/internal/cp.checksum":                                "cp",
		"nvdimmc/internal/pool.(*Pool).step.func2":                    "pool",
		"nvdimmc/internal/workload/openloop.(*Generator).Next":        "openloop",
		"nvdimmc/internal/hostmem.Layout.SlotAddr":                    otherLayer,
		"nvdimmc/internal/sim.insert[go.shape.*nvdimmc/internal/x.T]": "sim",
		"main.(*moduleLoad).check":                                    benchLayer,
	} {
		if got, ok := layerOf(fn); !ok || got != want {
			t.Errorf("layerOf(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
	if _, ok := layerOf("runtime.mallocgc"); ok {
		t.Error("runtime.mallocgc counted as a repository frame")
	}
	// Runtime frames are charged to their innermost repository caller.
	stack := []string{"runtime.memmove", "runtime.mallocgc", "nvdimmc/internal/ftl.(*FTL).WritePage", "nvdimmc/internal/nvmc.(*Controller).doReadData"}
	if got := fold(stack); got != "ftl" {
		t.Errorf("fold = %q, want ftl", got)
	}
	if got := fold([]string{"runtime.gcBgMarkWorker"}); got != runtimeLayer {
		t.Errorf("fold of a runtime-only stack = %q, want %q", got, runtimeLayer)
	}
}

// spin burns CPU in a benchmark frame.
func spin(d time.Duration) uint64 {
	var x uint64 = 1
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestFoldCPU decodes a real CPU profile and finds the benchmark's own
// frames in it.
func TestFoldCPU(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	sink := spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	by := map[string]float64{}
	if err := foldCPU(buf.Bytes(), by); err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range by {
		total += v
	}
	if total == 0 || by[benchLayer] < total/2 {
		t.Fatalf("bench share %v of %v samples (sink %d)", by[benchLayer], total, sink)
	}
}

// TestHostRefAllocatesNothing checks that a reference pass allocates
// nothing, so the simulator's heap and the collector cannot change how long
// it takes, and that it reports a positive time.
func TestHostRefAllocatesNothing(t *testing.T) {
	h, err := newHostRef()
	if err != nil {
		t.Fatal(err)
	}
	if p := h.pass(); p.wall <= 0 || p.cpu <= 0 {
		t.Fatalf("reference pass took %v s wall, %v s CPU", p.wall, p.cpu)
	}
	if n := testing.AllocsPerRun(3, func() { h.pass() }); n != 0 {
		t.Fatalf("reference pass allocates %v times", n)
	}
	nominal := refPass{refNominal.Seconds(), refNominal.Seconds()}
	if w, c := scales(nominal, nominal); w != 1 || c != 1 {
		t.Fatalf("scales at the nominal reference time = %v, %v; want 1, 1", w, c)
	}
}
