package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/pprof"
	"strings"
)

// layers are the repository packages the per-layer shares are folded onto.
var layers = []string{
	"sim", "ddr4", "imc", "bus", "dram", "refdet",
	"nvmc", "cp", "ftl", "nand", "nvdc", "core",
	"pool", "numa", "replay", "fault",
	"metrics", "conform", "trace", "openloop",
}

// Besides the layers, a share goes to the benchmark's own code ("bench"),
// to repository packages outside the list ("other"), and to samples with no
// repository frame at all — garbage collection workers, the scheduler, the
// profiler itself — so the shares of one profile sum to 100%.
const (
	benchLayer   = "bench"
	otherLayer   = "other"
	runtimeLayer = "runtime"
)

var layerSet = func() map[string]bool {
	m := map[string]bool{}
	for _, l := range layers {
		m[l] = true
	}
	return m
}()

// layerOf maps a function name to the layer it is charged to, reporting
// false for functions outside the repository (runtime, standard library).
func layerOf(fn string) (string, bool) {
	// The benchmark's package is "main" in its binary and carries its
	// import path in its test binary.
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "nvdimmc/perfbench.") {
		return benchLayer, true
	}
	if !strings.HasPrefix(fn, "nvdimmc/") {
		return "", false
	}
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiations name types from other packages
	}
	slash := strings.LastIndexByte(fn, '/')
	pkg := fn[slash+1:]
	if dot := strings.IndexByte(pkg, '.'); dot >= 0 {
		pkg = pkg[:dot]
	}
	if layerSet[pkg] {
		return pkg, true
	}
	return otherLayer, true
}

// fold charges a stack, innermost frame first, to its innermost repository
// frame, so runtime work such as mallocgc, memmove and GC assist lands on
// the layer whose call caused it.
func fold(funcs []string) string {
	for _, fn := range funcs {
		if l, ok := layerOf(fn); ok {
			return l
		}
	}
	return runtimeLayer
}

// profiler collects CPU profiles of the traced segments of a run and the
// allocation profile across the whole measured run.
type profiler struct {
	cur   *bytes.Buffer
	cpu   map[string]float64 // samples by layer
	alloc map[string]float64 // allocated bytes by layer at the start
}

func newProfiler() *profiler {
	return &profiler{cpu: map[string]float64{}, alloc: foldAllocs()}
}

func (p *profiler) start() error {
	p.cur = new(bytes.Buffer)
	if err := pprof.StartCPUProfile(p.cur); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	boundaries.on = true
	return nil
}

func (p *profiler) stop() error {
	pprof.StopCPUProfile()
	boundaries.on = false
	return foldCPU(p.cur.Bytes(), p.cpu)
}

// shares returns <layer>.cpu_pct and <layer>.alloc_pct for every layer.
func (p *profiler) shares() (map[string]float64, error) {
	allocs := foldAllocs()
	for l, v := range p.alloc {
		allocs[l] -= v
	}
	out := map[string]float64{}
	put := func(suffix string, by map[string]float64) error {
		var total float64
		for _, v := range by {
			total += v
		}
		if total <= 0 {
			return fmt.Errorf("%s profile is empty", suffix)
		}
		for _, l := range append(append([]string{}, layers...), benchLayer, otherLayer) {
			out[l+"."+suffix] = 100 * by[l] / total
		}
		out["runtime.gc_"+suffix] = 100 * by[runtimeLayer] / total
		return nil
	}
	if err := put("cpu_pct", p.cpu); err != nil {
		return nil, err
	}
	if err := put("alloc_pct", allocs); err != nil {
		return nil, err
	}
	return out, nil
}

// foldAllocs folds the runtime's cumulative allocation profile by layer,
// scaling each sampled record the way pprof does.
func foldAllocs() map[string]float64 {
	runtime.GC() // publish the allocations of the last cycle
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		n, ok = runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
	}
	rate := float64(runtime.MemProfileRate)
	by := map[string]float64{}
	var names []string
	for i := range recs {
		r := &recs[i]
		if r.AllocObjects == 0 {
			continue
		}
		names = names[:0]
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			names = append(names, f.Function)
			if !more {
				break
			}
		}
		bytes := float64(r.AllocBytes)
		if rate > 1 {
			avg := bytes / float64(r.AllocObjects)
			bytes /= 1 - math.Exp(-avg/rate)
		}
		by[fold(names)] += bytes
	}
	return by
}

// foldCPU decodes one gzipped pprof CPU profile and adds its sample counts
// by layer into by.
func foldCPU(gz []byte, by map[string]float64) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	var (
		strs    []string
		funcs   = map[uint64]uint64{}   // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		samples [][]uint64              // location ids, leaf first
		counts  []int64
	)
	err = protoFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var ids []uint64
			var vals []int64
			if err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return repeated(v, b, func(x uint64) { ids = append(ids, x) })
				case 2:
					return repeated(v, b, func(x uint64) { vals = append(vals, int64(x)) })
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) == 0 {
				return errors.New("sample without values")
			}
			samples = append(samples, ids)
			counts = append(counts, vals[0])
		case 4: // location
			var id uint64
			var fns []uint64
			if err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return protoFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locs[id] = fns
		case 5: // function
			var id, name uint64
			if err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcs[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	var names []string
	for i, ids := range samples {
		names = names[:0]
		for _, loc := range ids {
			for _, fn := range locs[loc] {
				if s := funcs[fn]; s < uint64(len(strs)) {
					names = append(names, strs[s])
				}
			}
		}
		by[fold(names)] += float64(counts[i])
	}
	return nil
}

// protoFields walks the fields of one protobuf message, passing varint
// values as v and length-delimited payloads as b.
func protoFields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field := int(key >> 3)
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// repeated handles a repeated varint field in either encoding: one value
// per field (b nil) or packed into one length-delimited payload.
func repeated(v uint64, b []byte, add func(uint64)) error {
	if b == nil {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}
