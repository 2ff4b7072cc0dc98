// Package ftl implements the flash translation layer that runs on one of
// the NVDIMM-C firmware cores (§IV-A): a page-mapped FTL over the Z-NAND
// array with wear-leveling, greedy garbage collection and bad-block
// management. The FTL exposes logical 4 KB pages; the usable capacity is
// the raw capacity minus over-provisioning (the PoC exposes 120 GB of the
// 128 GB raw Z-NAND, §VI).
//
// Page data is shared, not copied, below WritePage: WritePage takes one
// private copy of the caller's page and hands that copy to the NAND array,
// which keeps it as the stored page. The data ReadPage delivers is therefore
// read-only — the write buffer's copy, the stored NAND page or a shared zero
// page — and must not be modified.
package ftl

import (
	"fmt"

	"nvdimmc/internal/nand"
	"nvdimmc/internal/sim"
)

// PageSize is the FTL management granularity.
const PageSize = nand.PageSize

// Config parameterizes the FTL.
type Config struct {
	// OverProvisionPct is the fraction of raw blocks reserved for GC
	// headroom, in percent. The PoC reserves 128-120 = 6.25%.
	OverProvisionPct float64
	// GCLowWaterBlocks triggers foreground GC when the free-block pool of a
	// die drops to this size.
	GCLowWaterBlocks int
	// CoreOverhead is the firmware processing time per FTL operation
	// (mapping lookup/update on the Cortex-A53).
	CoreOverhead sim.Duration
}

// DefaultConfig matches the PoC proportions.
func DefaultConfig() Config {
	return Config{
		OverProvisionPct: 6.25,
		GCLowWaterBlocks: 2,
		CoreOverhead:     1 * sim.Microsecond,
	}
}

type blockMeta struct {
	addr     nand.PageAddr // page index unused
	valid    int
	inflight int     // programs issued but not yet completed
	lpns     []int64 // per page: owning logical page, -1 if invalid/unwritten
	inPool   bool
	open     bool
	nextPage int
	erasing  bool
}

type dieState struct {
	free   []*blockMeta // free pool, kept min-erase-first on allocation
	open   *blockMeta
	blocks []*blockMeta // indexed by block number; nil for factory bad blocks
	gc     bool         // GC in progress on this die
}

// zeroPage is the data of never-written logical pages. Nothing writes to it.
var zeroPage = make([]byte, PageSize)

const unmapped = int64(-1)

// FTL is the flash translation layer.
type FTL struct {
	k   *sim.Kernel
	arr *nand.Array
	cfg Config

	// mapping: logical page -> physical location (die-scoped block/page).
	mapping map[int64]nand.PageAddr

	// writeBuf holds the latest accepted-but-not-yet-programmed data per
	// logical page. Reads hit it so a read issued right after a posted
	// write returns the new data (the controller's battery-backed write
	// buffer; without it, writeback-then-cachefill of the same page would
	// read stale NAND).
	writeBuf map[int64][]byte
	writeSeq map[int64]uint64
	seq      uint64

	dies    []*dieState // flattened channel*die
	nextDie int         // round-robin write striping
	logical int64       // number of logical pages exposed

	core *sim.Resource // the FTL firmware core

	// debugLog, when non-nil, records mapping/commit events (tests).
	debugLog func(format string, args ...interface{})

	// stalled holds writes that arrived while every die was out of free
	// space; they drain as GC returns blocks to the pool (foreground GC
	// stall, the behaviour a real FTL exhibits when the drive is full).
	stalled []stalledWrite

	// Stats.
	hostWrites, gcWrites, gcRuns uint64
	readOps                      uint64
	readRetries                  uint64
	supersededWrites             uint64
	grownBad                     uint64
	stallEvents                  uint64
}

type stalledWrite struct {
	lpn         int64
	data        []byte
	gc          bool
	commitCheck func() bool
	done        func(error)
}

// New builds the FTL over arr, skipping factory bad blocks.
func New(k *sim.Kernel, arr *nand.Array, cfg Config) *FTL {
	f := &FTL{
		k:        k,
		arr:      arr,
		cfg:      cfg,
		mapping:  make(map[int64]nand.PageAddr),
		writeBuf: make(map[int64][]byte),
		writeSeq: make(map[int64]uint64),
		core:     sim.NewResource(k, "ftl-core"),
	}
	ncfg := arr.Config()
	usable := 0
	for c := 0; c < ncfg.Channels; c++ {
		for d := 0; d < ncfg.DiesPerChan; d++ {
			ds := &dieState{blocks: make([]*blockMeta, ncfg.BlocksPerDie)}
			for b := 0; b < ncfg.BlocksPerDie; b++ {
				addr := nand.PageAddr{Channel: c, Die: d, Block: b}
				if arr.IsBad(addr) {
					continue
				}
				bm := &blockMeta{addr: addr, lpns: make([]int64, ncfg.PagesPerBlock), inPool: true}
				for i := range bm.lpns {
					bm.lpns[i] = unmapped
				}
				ds.free = append(ds.free, bm)
				ds.blocks[b] = bm
				usable++
			}
			f.dies = append(f.dies, ds)
		}
	}
	// Logical capacity: good blocks minus over-provisioning.
	logicalBlocks := int(float64(usable) * (1 - cfg.OverProvisionPct/100))
	f.logical = int64(logicalBlocks) * int64(ncfg.PagesPerBlock)
	return f
}

// LogicalPages returns the number of 4 KB logical pages exposed.
func (f *FTL) LogicalPages() int64 { return f.logical }

// Capacity returns the usable capacity in bytes.
func (f *FTL) Capacity() int64 { return f.logical * PageSize }

// Stats reports host writes, GC writes (write amplification source), GC runs
// and grown bad blocks.
func (f *FTL) Stats() (hostWrites, gcWrites, gcRuns, grownBad uint64) {
	return f.hostWrites, f.gcWrites, f.gcRuns, f.grownBad
}

// WriteAmplification returns (host+gc)/host writes, or 1 if no writes yet.
func (f *FTL) WriteAmplification() float64 {
	if f.hostWrites == 0 {
		return 1
	}
	return float64(f.hostWrites+f.gcWrites) / float64(f.hostWrites)
}

// IsMapped reports whether the logical page has ever been written.
func (f *FTL) IsMapped(lpn int64) bool {
	_, ok := f.mapping[lpn]
	return ok
}

func (f *FTL) checkLPN(lpn int64) error {
	if lpn < 0 || lpn >= f.logical {
		return fmt.Errorf("ftl: lpn %d out of range [0,%d)", lpn, f.logical)
	}
	return nil
}

// ReadPage fetches logical page lpn. Never-written pages complete
// immediately with a zero page (block-device semantics). The data done
// receives is read-only (see the package comment).
func (f *FTL) ReadPage(lpn int64, done func(data []byte, err error)) {
	if err := f.checkLPN(lpn); err != nil {
		done(nil, err)
		return
	}
	f.core.Acquire(f.cfg.CoreOverhead, func(sim.Time) {
		if buf, ok := f.writeBuf[lpn]; ok {
			// Write-buffer hit: the freshest data has not reached NAND yet.
			done(buf, nil)
			return
		}
		addr, ok := f.mapping[lpn]
		if !ok {
			done(zeroPage, nil)
			return
		}
		f.readOps++
		f.arr.Read(addr, func(data []byte, err error) {
			if err == nil {
				done(data, nil)
				return
			}
			// Uncorrectable ECC error: one read-retry (shifted read levels
			// recover marginal pages on real media) before surfacing it.
			f.readRetries++
			f.arr.Read(addr, done)
		})
	})
}

// WritePage stores a full logical page. The write is acknowledged once the
// data is programmed into NAND. WritePage copies data, so the caller may
// reuse it as soon as WritePage returns.
func (f *FTL) WritePage(lpn int64, data []byte, done func(err error)) {
	if err := f.checkLPN(lpn); err != nil {
		if done != nil {
			done(err)
		}
		return
	}
	if len(data) != PageSize {
		if done != nil {
			done(fmt.Errorf("ftl: write size %d != %d", len(data), PageSize))
		}
		return
	}
	owned := make([]byte, PageSize)
	copy(owned, data)
	f.core.Acquire(f.cfg.CoreOverhead, func(sim.Time) {
		f.hostWrites++
		f.seq++
		seq := f.seq
		f.writeBuf[lpn] = owned
		f.writeSeq[lpn] = seq
		check := func() bool { return f.writeSeq[lpn] == seq }
		f.appendWrite(lpn, owned, false, check, func(err error) {
			// Retire the buffer entry unless a newer write replaced it.
			if f.writeSeq[lpn] == seq {
				delete(f.writeBuf, lpn)
				delete(f.writeSeq, lpn)
			}
			if done != nil {
				done(err)
			}
		})
	})
}

// Trim unmaps a logical page without writing.
func (f *FTL) Trim(lpn int64) {
	delete(f.writeBuf, lpn)
	delete(f.writeSeq, lpn)
	if addr, ok := f.mapping[lpn]; ok {
		f.invalidate(addr)
		delete(f.mapping, lpn)
	}
}

func (f *FTL) invalidate(addr nand.PageAddr) {
	if bm := f.dieFor(addr).blocks[addr.Block]; bm != nil && bm.lpns[addr.Page] != unmapped {
		bm.lpns[addr.Page] = unmapped
		bm.valid--
	}
}

func (f *FTL) dieFor(addr nand.PageAddr) *dieState {
	return f.dies[addr.Channel*f.arr.Config().DiesPerChan+addr.Die]
}

// allocOpen ensures die ds has an open block, taking the least-worn free
// block (wear-leveling). Returns nil if the die has no usable space. Unless
// gc is set, the globally last free block is held back as GC headroom so the
// reclaim path can never deadlock on space.
func (f *FTL) allocOpen(ds *dieState, gc bool) *blockMeta {
	if ds.open != nil && ds.open.nextPage < f.arr.Config().PagesPerBlock {
		return ds.open
	}
	if ds.open != nil {
		ds.open.open = false
		ds.open = nil
	}
	if len(ds.free) == 0 {
		return nil
	}
	if !gc && len(ds.free) <= 1 {
		// The last free block of each die is GC headroom: die-local GC can
		// then always relocate a victim's live pages.
		return nil
	}
	// Least-worn free block.
	best := 0
	for i, bm := range ds.free {
		if f.arr.Erases(bm.addr) < f.arr.Erases(ds.free[best].addr) {
			best = i
		}
	}
	bm := ds.free[best]
	ds.free = append(ds.free[:best], ds.free[best+1:]...)
	bm.inPool = false
	bm.open = true
	bm.nextPage = 0
	ds.open = bm
	return bm
}

// maxProgramRetries bounds the program-fail remap loop: each attempt retires
// the failing block and rewrites elsewhere, so hitting the bound means the
// media is systematically refusing programs (every block failing) and the
// write must surface an error rather than consume the whole array.
const maxProgramRetries = 8

// appendWrite places data at the next free physical page of the round-robin
// die, updating the mapping. gc marks GC relocation traffic. commitCheck, if
// non-nil, runs at program completion: when it reports false the write was
// superseded while in flight (a newer host write to the same lpn, or a GC
// relocation whose source moved) and the freshly programmed page is left
// invalid instead of clobbering the newer mapping.
func (f *FTL) appendWrite(lpn int64, data []byte, gc bool, commitCheck func() bool, done func(error)) {
	f.appendWriteN(nil, lpn, data, gc, commitCheck, done, 0)
}

// appendWriteOn is appendWrite pinned to one die when target is non-nil
// (die-local GC relocation: with one reserved block per die, a victim's
// valid pages — at most PagesPerBlock-1 of them — always fit, so GC can
// never wedge on space).
func (f *FTL) appendWriteOn(target *dieState, lpn int64, data []byte, gc bool, commitCheck func() bool, done func(error)) {
	f.appendWriteN(target, lpn, data, gc, commitCheck, done, 0)
}

// appendWriteN carries the program-fail retry count through remap attempts.
func (f *FTL) appendWriteN(target *dieState, lpn int64, data []byte, gc bool, commitCheck func() bool, done func(error), attempt int) {
	// Pick a die: the pinned one for GC, round-robin for host writes.
	var ds *dieState
	var bm *blockMeta
	if target != nil {
		if b := f.allocOpen(target, gc); b != nil {
			ds, bm = target, b
		}
	} else {
		start := f.nextDie
		for i := 0; i < len(f.dies); i++ {
			cand := f.dies[(start+i)%len(f.dies)]
			if b := f.allocOpen(cand, gc); b != nil {
				ds, bm = cand, b
				f.nextDie = (start + i + 1) % len(f.dies)
				break
			}
		}
	}
	if ds == nil {
		// Every die is out of programmable pages: stall until GC returns a
		// block to some free pool. GC writes are never stalled (they would
		// deadlock the reclaim path); their die always has the erased victim
		// pending, so a failure here means the device is truly wedged.
		if gc {
			if done != nil {
				done(fmt.Errorf("ftl: GC relocation found no free blocks"))
			}
			return
		}
		f.stallEvents++
		f.stalled = append(f.stalled, stalledWrite{lpn: lpn, data: data, gc: gc, commitCheck: commitCheck, done: done})
		// Kick GC on every die: the stall may be observable only here (all
		// open blocks just filled up with no program completion pending).
		for _, d := range f.dies {
			f.maybeGC(d)
		}
		return
	}
	page := bm.nextPage
	bm.nextPage++ // reserve in FTL metadata; nand enforces order too
	bm.inflight++
	if bm.nextPage >= f.arr.Config().PagesPerBlock {
		// Last page reserved: close the block so GC can take it as a victim.
		bm.open = false
		if ds.open == bm {
			ds.open = nil
		}
	}
	addr := bm.addr
	addr.Page = page
	f.arr.Program(addr, data, func(err error) {
		bm.inflight--
		if err != nil {
			// Grown bad block: retire and retry elsewhere, up to the remap
			// bound — persistent program failure must surface, not consume
			// the array block by block.
			f.grownBad++
			f.arr.MarkBad(bm.addr)
			bm.nextPage = f.arr.Config().PagesPerBlock // close it
			if attempt+1 >= maxProgramRetries {
				if done != nil {
					done(fmt.Errorf("ftl: program of lpn %d failed after %d remap attempts: %w", lpn, attempt+1, err))
				}
				return
			}
			f.appendWriteN(nil, lpn, data, gc, commitCheck, done, attempt+1)
			return
		}
		if commitCheck != nil && !commitCheck() {
			// Superseded while the program was in flight: leave the page
			// invalid (GC reclaims it) and keep the newer mapping intact.
			f.supersededWrites++
			if done != nil {
				done(nil)
			}
			return
		}
		// Invalidate the previous location, commit the new mapping.
		if bm.lpns[page] != unmapped {
			panic(fmt.Sprintf("ftl: double commit on %v page %d (holds lpn %d, committing %d)", bm.addr, page, bm.lpns[page], lpn))
		}
		if old, ok := f.mapping[lpn]; ok {
			f.invalidate(old)
		}
		if f.debugLog != nil {
			f.debugLog("commit lpn=%d -> %v (gc=%v)", lpn, addr, gc)
		}
		f.mapping[lpn] = addr
		bm.lpns[page] = lpn
		bm.valid++
		if gc {
			f.gcWrites++
		}
		f.maybeGC(ds)
		if done != nil {
			done(nil)
		}
	})
}

// maybeGC starts garbage collection on the die when its free pool is low.
func (f *FTL) maybeGC(ds *dieState) {
	if ds.gc || len(ds.free) > f.cfg.GCLowWaterBlocks {
		return
	}
	// Victim: closed block with fewest valid pages (greedy), not open/pool.
	var victim *blockMeta
	for _, bm := range ds.blocks {
		if bm == nil || bm.inPool || bm.open || bm.erasing {
			continue
		}
		if bm.nextPage < f.arr.Config().PagesPerBlock {
			continue // not fully written yet
		}
		if bm.valid >= f.arr.Config().PagesPerBlock {
			continue // fully valid: erasing it reclaims nothing
		}
		if bm.inflight > 0 {
			continue // programs still in flight; erasing would lose them
		}
		if victim == nil || bm.valid < victim.valid {
			victim = bm
		}
	}
	if victim == nil {
		return
	}
	ds.gc = true
	f.gcRuns++
	if f.debugLog != nil {
		f.debugLog("gc select victim %v valid=%d", victim.addr, victim.valid)
	}
	f.relocate(ds, victim, 0)
}

// relocate moves valid pages out of victim starting at page index i, then
// erases it and returns it to the free pool.
func (f *FTL) relocate(ds *dieState, victim *blockMeta, i int) {
	pages := f.arr.Config().PagesPerBlock
	for i < pages && victim.lpns[i] == unmapped {
		i++
	}
	if i >= pages {
		// A victim must hold no live pages by now; valid==0 is the O(1)
		// equivalent of scanning the mapping (CheckInvariants ties the two).
		if victim.valid != 0 {
			panic(fmt.Sprintf("ftl: erasing %v with %d live pages", victim.addr, victim.valid))
		}
		if f.debugLog != nil {
			f.debugLog("gc erase %v", victim.addr)
		}
		victim.erasing = true
		f.arr.Erase(victim.addr, func(err error) {
			victim.erasing = false
			if err != nil {
				f.grownBad++
				f.arr.MarkBad(victim.addr)
				ds.gc = false
				return
			}
			for j := range victim.lpns {
				victim.lpns[j] = unmapped
			}
			victim.valid = 0
			victim.nextPage = 0
			victim.inPool = true
			ds.free = append(ds.free, victim)
			ds.gc = false
			f.drainStalled()
			// Low water may still hold: chain another GC pass.
			f.maybeGC(ds)
		})
		return
	}
	lpn := victim.lpns[i]
	src := victim.addr
	src.Page = i
	f.arr.Read(src, func(data []byte, err error) {
		if err != nil {
			ds.gc = false
			return
		}
		// The page may have been overwritten by the host while we read it;
		// skip relocation if the mapping moved — and re-check at program
		// completion too (the host can overtake the in-flight relocation).
		if cur, ok := f.mapping[lpn]; !ok || cur != src {
			f.relocate(ds, victim, i+1)
			return
		}
		check := func() bool {
			cur, ok := f.mapping[lpn]
			return ok && cur == src
		}
		f.appendWriteOn(ds, lpn, data, true, check, func(err error) {
			if err != nil {
				// Should be unreachable with die-local GC and the per-die
				// reserve; abort rather than erase live data regardless.
				ds.gc = false
				return
			}
			f.relocate(ds, victim, i+1)
		})
	})
}

// drainStalled retries writes parked while the device was out of space.
func (f *FTL) drainStalled() {
	// One retry pass per call: a write that immediately re-stalls must not
	// spin the loop.
	n := len(f.stalled)
	for i := 0; i < n && len(f.stalled) > 0; i++ {
		w := f.stalled[0]
		f.stalled = f.stalled[1:]
		f.appendWrite(w.lpn, w.data, w.gc, w.commitCheck, w.done)
	}
}

// StallEvents reports how many host writes had to wait for GC space.
func (f *FTL) StallEvents() uint64 { return f.stallEvents }

// ReadRetries reports ECC-triggered read retries.
func (f *FTL) ReadRetries() uint64 { return f.readRetries }

// SupersededWrites reports in-flight writes abandoned because a newer write
// to the same logical page overtook them.
func (f *FTL) SupersededWrites() uint64 { return f.supersededWrites }

// FreeBlocks returns the total free-pool size across dies (for tests).
func (f *FTL) FreeBlocks() int {
	n := 0
	for _, ds := range f.dies {
		n += len(ds.free)
	}
	return n
}

// CheckInvariants validates internal consistency: every mapping points at a
// page whose reverse entry matches, and valid counts agree. Tests call this
// after workloads.
func (f *FTL) CheckInvariants() error {
	for lpn, addr := range f.mapping {
		bm := f.dieFor(addr).blocks[addr.Block]
		if bm == nil {
			return fmt.Errorf("ftl: lpn %d maps to unknown block %v", lpn, addr)
		}
		if bm.lpns[addr.Page] != lpn {
			return fmt.Errorf("ftl: lpn %d maps to %v but reverse entry is %d", lpn, addr, bm.lpns[addr.Page])
		}
	}
	for _, ds := range f.dies {
		for _, bm := range ds.blocks {
			if bm == nil {
				continue
			}
			n := 0
			for _, l := range bm.lpns {
				if l != unmapped {
					n++
				}
			}
			if n != bm.valid {
				return fmt.Errorf("ftl: block %v valid=%d but %d live lpns", bm.addr, bm.valid, n)
			}
		}
	}
	return nil
}
