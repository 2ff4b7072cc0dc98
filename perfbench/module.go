package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"

	"nvdimmc/internal/core"
	"nvdimmc/internal/sim"
)

// The module workloads drive one NVDIMM-C module through the byte-addressable
// load/store path, closed loop: each of moduleThreads simulated threads issues
// its next access when the previous one completes. Thread t owns the pages
// whose number is t modulo moduleThreads, so no two accesses to one page are
// ever in flight together and every load has one exact expected value.

const (
	moduleThreads = 8
	lineBytes     = 64
	linesPerPage  = core.PageSize / lineBytes
)

// moduleShape is what distinguishes the two module workloads.
type moduleShape struct {
	// pages returns the footprint in pages for an assembled system.
	pages func(s *core.System) int64
	// writePct is the store share of accesses.
	writePct int
	// wholePage makes every access a full 4 KB page; otherwise sizes are
	// drawn in 64 B lines from 64 B to 4 KB.
	wholePage bool
	// blockOps is the number of accesses in one measured block.
	blockOps int
	// verifyPages bounds the end-of-run read-back (0: every page).
	verifyPages int
	// overProvisionPct overrides the FTL's spare share when positive.
	overProvisionPct float64
}

// module-miss: every page of the default module, uniform random, half
// stores: most accesses miss the 16 MB DRAM cache, evict dirty slots and
// drive CP writebacks, cachefills and FTL garbage collection.
//
// The FTL spare share is raised from 6.25% to 25%. At 6.25% garbage
// collection cannot keep up with this stream: the NVMC acknowledges posted
// writebacks before they program, so the FTL's stalled-write queue grows
// without bound (about 40 MB of live heap per host second), and every host
// figure would depend on how long the run was.
var missShape = moduleShape{
	pages:            func(s *core.System) int64 { return s.Driver.CapacityPages() },
	writePct:         50,
	wholePage:        true,
	blockOps:         5000,
	verifyPages:      256,
	overProvisionPct: 25,
}

// module-hit: half the cache slots, 90% loads of 64 B to 4 KB: every access
// hits the DRAM cache, so the DDR model and the driver's hit path do the
// work and the FTL receives no host writes.
var hitShape = moduleShape{
	pages:     func(s *core.System) int64 { return int64(s.Layout.NumSlots / 2) },
	writePct:  10,
	wholePage: false,
	blockOps:  40000,
}

func setupModuleMiss(seed uint64, _ int) (workload, error) { return newModuleLoad(seed, missShape) }
func setupModuleHit(seed uint64, _ int) (workload, error)  { return newModuleLoad(seed, hitShape) }

type moduleThread struct {
	id  int
	rng *sim.Rand
	buf []byte
	// the access in flight
	lpn         int64
	line, lines int
	write       bool
}

type moduleLoad struct {
	shape moduleShape
	sys   *core.System
	pages int64
	// ver holds the version last stored to each 64 B line of the footprint;
	// every stored byte is a function of (page, line, version).
	ver     []uint32
	threads []*moduleThread
	t0      sim.Time

	submitted, completed, failed uint64
	inflight                     int
	stopping                     bool
	err                          error
	hash                         hash.Hash64
	rec                          [32]byte
}

func newModuleLoad(seed uint64, shape moduleShape) (*moduleLoad, error) {
	cfg := core.DefaultConfig()
	cfg.Seed = sim.SplitSeed(seed, "perfbench/module")
	if shape.overProvisionPct > 0 {
		cfg.FTL.OverProvisionPct = shape.overProvisionPct
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	m := &moduleLoad{shape: shape, sys: sys, pages: shape.pages(sys), hash: fnv.New64a()}
	if m.pages < moduleThreads {
		return nil, fmt.Errorf("module footprint of %d pages is below %d threads", m.pages, moduleThreads)
	}
	m.ver = make([]uint32, m.pages*linesPerPage)
	for t := 0; t < moduleThreads; t++ {
		m.threads = append(m.threads, &moduleThread{
			id:  t,
			rng: sim.NewRand(sim.SplitSeed(seed, fmt.Sprintf("perfbench/module/thread%d", t))),
			buf: make([]byte, core.PageSize),
		})
	}
	if err := m.prefill(); err != nil {
		return nil, err
	}
	m.t0 = sys.K.Now()
	return m, nil
}

// prefill stores version 1 to every footprint page, eight streams wide, so
// every later load reads a stored page.
func (m *moduleLoad) prefill() error {
	next := int64(0)
	var issue func(t *moduleThread)
	issue = func(t *moduleThread) {
		if next >= m.pages || m.err != nil {
			return
		}
		lpn := next
		next++
		m.inflight++
		t.lpn, t.line, t.lines, t.write = lpn, 0, linesPerPage, true
		m.fill(t, 1)
		m.sys.StoreErr(lpn*core.PageSize, t.buf, func(err error) {
			m.inflight--
			if err != nil {
				m.err = fmt.Errorf("prefill store of page %d: %w", lpn, err)
				return
			}
			m.setVersion(t, 1)
			issue(t)
		})
	}
	for _, t := range m.threads {
		issue(t)
	}
	m.sys.K.RunWhile(func() bool { return m.inflight > 0 })
	if m.err == nil && next != m.pages {
		m.err = fmt.Errorf("prefill stopped at page %d of %d", next, m.pages)
	}
	return m.err
}

// lineWord0 is the 8-byte value stored at word 0 of a line at version v;
// word w holds lineWord0 ^ w<<52, so each line reads as distinct words.
func lineWord0(lpn int64, line int, v uint32) uint64 {
	return uint64(lpn)*0x9e3779b97f4a7c15 ^ uint64(line)<<55 ^ uint64(v)*0xbf58476d1ce4e5b9
}

// fill writes version v of the thread's span into its buffer.
func (m *moduleLoad) fill(t *moduleThread, v uint32) {
	for l := 0; l < t.lines; l++ {
		w0 := lineWord0(t.lpn, t.line+l, v)
		b := t.buf[l*lineBytes : (l+1)*lineBytes]
		for w := 0; w < lineBytes/8; w++ {
			binary.LittleEndian.PutUint64(b[w*8:], w0^uint64(w)<<52)
		}
	}
}

// lineMatches reports whether the 64 B line b holds the words of a line
// whose word 0 is w0. It is the hot half of every load check, so it folds
// the eight comparisons into one branch.
func lineMatches(b []byte, w0 uint64) bool {
	_ = b[63]
	le := binary.LittleEndian
	return le.Uint64(b[0:])^w0|le.Uint64(b[8:])^w0^1<<52|
		le.Uint64(b[16:])^w0^2<<52|le.Uint64(b[24:])^w0^3<<52|
		le.Uint64(b[32:])^w0^4<<52|le.Uint64(b[40:])^w0^5<<52|
		le.Uint64(b[48:])^w0^6<<52|le.Uint64(b[56:])^w0^7<<52 == 0
}

func (m *moduleLoad) setVersion(t *moduleThread, v uint32) {
	base := t.lpn * linesPerPage
	for l := t.line; l < t.line+t.lines; l++ {
		m.ver[base+int64(l)] = v
	}
}

// check compares a completed load against the last stored versions.
func (m *moduleLoad) check(t *moduleThread) error {
	base := t.lpn * linesPerPage
	for l := 0; l < t.lines; l++ {
		line := t.line + l
		v := m.ver[base+int64(line)]
		w0 := lineWord0(t.lpn, line, v)
		b := t.buf[l*lineBytes : (l+1)*lineBytes]
		if lineMatches(b, w0) {
			continue
		}
		for w := 0; w < lineBytes/8; w++ {
			if got, want := binary.LittleEndian.Uint64(b[w*8:]), w0^uint64(w)<<52; got != want {
				return fmt.Errorf("load of page %d line %d word %d read %#x, want %#x (version %d)",
					t.lpn, line, w, got, want, v)
			}
		}
	}
	return nil
}

// issue starts thread t's next access.
func (m *moduleLoad) issue(t *moduleThread) {
	if m.stopping || m.err != nil {
		return
	}
	own := (m.pages - int64(t.id) + moduleThreads - 1) / moduleThreads
	t.lpn = int64(t.id) + moduleThreads*t.rng.Int63n(own)
	t.write = t.rng.Intn(100) < m.shape.writePct
	if m.shape.wholePage {
		t.line, t.lines = 0, linesPerPage
	} else {
		t.lines = 1 + t.rng.Intn(linesPerPage)
		t.line = t.rng.Intn(linesPerPage - t.lines + 1)
	}
	off := t.lpn*core.PageSize + int64(t.line*lineBytes)
	span := t.buf[:t.lines*lineBytes]
	m.submitted++
	m.inflight++
	if t.write {
		v := m.ver[t.lpn*linesPerPage+int64(t.line)] + 1
		m.fill(t, v)
		m.sys.StoreErr(off, span, func(err error) {
			if err == nil {
				m.setVersion(t, v)
			}
			m.done(t, err)
		})
		return
	}
	m.sys.LoadErr(off, span, func(err error) {
		if err == nil {
			if cerr := m.check(t); cerr != nil && m.err == nil {
				m.err = cerr
			}
		}
		m.done(t, err)
	})
}

func (m *moduleLoad) done(t *moduleThread, err error) {
	m.inflight--
	if err != nil {
		m.failed++
	} else {
		m.completed++
	}
	binary.LittleEndian.PutUint64(m.rec[0:], uint64(t.lpn)<<8|uint64(t.line)<<1|b2u(t.write))
	binary.LittleEndian.PutUint64(m.rec[8:], uint64(t.lines))
	binary.LittleEndian.PutUint64(m.rec[16:], uint64(m.sys.K.Now()))
	binary.LittleEndian.PutUint64(m.rec[24:], b2u(err != nil))
	m.hash.Write(m.rec[:])
	m.issue(t)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (m *moduleLoad) block() (int, error) {
	if m.inflight == 0 {
		for _, t := range m.threads {
			m.issue(t)
		}
	}
	target := m.completed + m.failed + uint64(m.shape.blockOps)
	timed(&boundaries.simRun, func() {
		m.sys.K.RunWhile(func() bool { return m.err == nil && m.completed+m.failed < target })
	})
	if m.err != nil {
		return 0, m.err
	}
	return m.shape.blockOps, nil
}

func (m *moduleLoad) simNow() float64 { return m.sys.K.Now().Sub(m.t0).Seconds() }

func (m *moduleLoad) counters() (map[string]float64, map[string]float64) {
	ctr := map[string]float64{}
	addSystem(ctr, m.sys)
	return ctr, nil
}

func (m *moduleLoad) digest() uint64 { return m.hash.Sum64() }

// finish lets the in-flight accesses complete, reads back a seeded sample
// of the footprint (all of it when verifyPages is 0) against the shadow,
// and audits the module.
func (m *moduleLoad) finish() (ledger, error) {
	m.stopping = true
	m.sys.K.RunWhile(func() bool { return m.inflight > 0 })
	if m.err != nil {
		return ledger{}, m.err
	}
	led := ledger{submitted: m.submitted, completed: m.completed, failed: m.failed}
	n := m.pages
	if m.shape.verifyPages > 0 && int64(m.shape.verifyPages) < n {
		n = int64(m.shape.verifyPages)
	}
	rng := sim.NewRand(uint64(m.pages))
	t := m.threads[0]
	for i := int64(0); i < n && m.err == nil; i++ {
		lpn := i
		if n < m.pages {
			lpn = rng.Int63n(m.pages)
		}
		t.lpn, t.line, t.lines = lpn, 0, linesPerPage
		busy := true
		m.sys.LoadErr(lpn*core.PageSize, t.buf, func(err error) {
			busy = false
			if err != nil {
				m.err = fmt.Errorf("read-back of page %d: %w", lpn, err)
				return
			}
			if cerr := m.check(t); cerr != nil {
				led.ackedLost++
				m.err = fmt.Errorf("read-back: %w", cerr)
			}
		})
		m.sys.K.RunWhile(func() bool { return busy })
	}
	if m.err != nil {
		return led, m.err
	}
	if err := m.sys.CheckHealth(); err != nil {
		return led, err
	}
	return led, nil
}

func shapeModuleMiss(m map[string]float64) error {
	if r := m["nvdc.hit_ratio"]; r > 0.5 {
		return fmt.Errorf("nvdc.hit_ratio %.3f: the miss workload mostly hits", r)
	}
	if m["ftl.gc_writes"] == 0 {
		return fmt.Errorf("ftl.gc_writes 0: FTL garbage collection never ran")
	}
	return nil
}

func shapeModuleHit(m map[string]float64) error {
	if n := m["ftl.host_writes"]; n != 0 {
		return fmt.Errorf("ftl.host_writes %.0f: the hit workload reached the FTL", n)
	}
	if r := m["nvdc.hit_ratio"]; r != 1 {
		return fmt.Errorf("nvdc.hit_ratio %.4f: the hit workload missed the DRAM cache", r)
	}
	return nil
}
