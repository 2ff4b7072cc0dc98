package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"time"

	"nvdimmc/internal/core"
	"nvdimmc/internal/pool"
	"nvdimmc/internal/replay"
	"nvdimmc/internal/sim"
	"nvdimmc/internal/workload/openloop"
)

// socket-replay: a 6-channel pooled socket fed a binary trace through
// replay.Drive. The trace is captured in set-up from a seeded two-tenant
// open loop — a zipfian key-value tenant (90% reads) and a uniform log
// tenant (50% reads) over 1.25x the cached footprint, every request with a
// deadline — at a fixed simulated rate just below where the deadline-aware
// admission starts shedding. The loop is open in simulated time: arrivals
// follow the trace whatever the plane does, and each request is timed from
// its arrival.
const (
	socketChannels = 6
	// socketRate is the aggregate arrival rate in requests per simulated
	// second, just below where deadline-aware admission starts shedding: at
	// 0.6M/s two seeds in ten shed a few requests, and from about 0.7M/s the
	// p99 nears the 1 ms deadline.
	socketRate = 0.5e6
	// socketQueue is the per-channel dispatch queue; kept short so bursts
	// are held at admission (pool.held_peak) rather than queued.
	socketQueue = 4
	// socketDeadlineREFI is every request's budget in tREFI periods.
	socketDeadlineREFI = 128
	// socketRecords is the captured trace length; a run that replays all of
	// it stops early.
	socketRecords = 3 << 20
	// socketBlock is the number of trace records one block drives.
	socketBlock = 16000
	// socketGap is the idle simulated time between blocks of the trace,
	// longer than the request deadline so a block drains before the next
	// one's first arrival.
	socketGap = 2 * sim.Millisecond
)

func socketMember() core.Config {
	cfg := core.DefaultConfig()
	cfg.CacheBytes = 4 << 20
	cfg.NAND.BlocksPerDie = 32
	return cfg
}

type socketReplay struct {
	p     *pool.Pool
	trace []byte
	rd    *replay.Reader
	done  bool
	// starts holds each block's first arrival; lag is the worst delay of
	// a block's start past it, how late the open loop ran.
	starts []sim.Duration
	blocks int
	lag    sim.Duration

	hash hash.Hash64
	rec  [40]byte
}

func setupSocketReplay(seed uint64, workers int) (workload, error) {
	w := &socketReplay{hash: fnv.New64a()}
	p, err := pool.New(pool.Config{
		Channels:        socketChannels,
		DIMMsPerChannel: 1,
		Interleave:      core.PageSize,
		Member:          socketMember(),
		Workers:         workers,
		Seed:            sim.SplitSeed(seed, "perfbench/socket/pool"),
		PrefillPages:    -1,
		Admission:       pool.AdmitDeadlineAware,
		QueueCap:        socketQueue,
		Notify:          w.complete,
	})
	if err != nil {
		return nil, err
	}
	w.p = p
	foot := p.CachedFootprint() * 5 / 4
	half := foot / 2
	half -= half % p.Cfg.Interleave
	gen, err := openloop.New(openloop.Config{
		Seed:       sim.SplitSeed(seed, "perfbench/socket/load"),
		RatePerSec: socketRate,
		Deadline:   socketDeadlineREFI * socketMember().TREFI,
		Tenants: []openloop.Tenant{
			{Name: "kv", Dist: openloop.Zipfian, Weight: 3, ReadPct: 90, Footprint: half},
			{Name: "log", Dist: openloop.Uniform, Weight: 1, ReadPct: 50, Footprint: half, Offset: half},
		},
	})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	tw, err := replay.NewWriter(&buf, replay.Binary)
	if err != nil {
		return nil, err
	}
	rec := replay.NewRecorder(tw)
	for i := 0; i < socketRecords; i++ {
		q := gen.Next()
		// Every Drive call returns drained, so each block of the trace ends
		// in an idle gap the drain fits in; without it the arrivals due
		// during a drain would reach the plane as one burst.
		blk := i / socketBlock
		q.Arrival += sim.Duration(blk) * socketGap
		if i%socketBlock == 0 {
			w.starts = append(w.starts, q.Arrival)
		}
		rec.Record(q)
	}
	if err := rec.Close(); err != nil {
		return nil, fmt.Errorf("trace capture: %w", err)
	}
	w.trace = buf.Bytes()
	if w.rd, err = replay.NewReader(bytes.NewReader(w.trace)); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *socketReplay) complete(c pool.Completion) {
	binary.LittleEndian.PutUint64(w.rec[0:], c.ID)
	binary.LittleEndian.PutUint64(w.rec[8:], uint64(c.Outcome)<<2|b2u(c.Write)<<1|b2u(c.Late))
	binary.LittleEndian.PutUint64(w.rec[16:], uint64(c.At))
	binary.LittleEndian.PutUint64(w.rec[24:], uint64(c.Latency))
	binary.LittleEndian.PutUint64(w.rec[32:], uint64(c.Tenant))
	w.hash.Write(w.rec[:])
}

func (w *socketReplay) block() (int, error) {
	if w.done {
		return 0, errExhausted
	}
	if w.blocks < len(w.starts) {
		if d := w.p.Now().Sub(w.p.Origin()) - w.starts[w.blocks]; d > w.lag {
			w.lag = d
		}
	}
	w.blocks++
	var st replay.Stats
	var err error
	timed(&boundaries.replayDrive, func() { st, err = replay.Drive(w.p, w.rd, socketBlock) })
	if err != nil {
		return 0, err
	}
	if st.Retimed != 0 {
		return 0, fmt.Errorf("replay re-timed %d records of a captured trace", st.Retimed)
	}
	if st.Ops < socketBlock {
		w.done = true
	}
	if st.Ops == 0 {
		return 0, errExhausted
	}
	return st.Ops, nil
}

func (w *socketReplay) simNow() float64 { return w.p.Now().Sub(w.p.Origin()).Seconds() }

func (w *socketReplay) counters() (map[string]float64, map[string]float64) {
	ctr := map[string]float64{}
	for i := 0; i < w.p.Members(); i++ {
		addSystem(ctr, w.p.Member(i))
	}
	s := w.p.Stats()
	ctr["pool.epochs"] = float64(s.Epochs)
	ctr["pool.completed"] = float64(s.Completed)
	ctr["pool.shed"] = float64(s.Shed)
	ctr["pool.expired"] = float64(s.Expired)
	gauge := map[string]float64{
		"pool.held_peak":      float64(s.HeldPeak),
		"pool.sim_p99_us":     s.Lat.Percentile(99).Microseconds(),
		"pool.sim_MBps":       ratio(float64(s.Meter.Bytes())/1e6, s.Meter.Elapsed().Seconds()),
		"replay.bytes_per_op": float64(len(w.trace)) / socketRecords,
		"replay.lag_us":       w.lag.Microseconds(),
	}
	return ctr, gauge
}

func (w *socketReplay) digest() uint64 { return w.hash.Sum64() }

// decodeOnly times a decode-only pass over the whole trace.
func (w *socketReplay) decodeOnly() (time.Duration, error) {
	t0 := time.Now()
	rd, err := replay.NewReader(bytes.NewReader(w.trace))
	if err != nil {
		return 0, err
	}
	for {
		if _, err := rd.Next(); err == io.EOF {
			break
		} else if err != nil {
			return 0, err
		}
	}
	if rd.Records() != socketRecords {
		return 0, fmt.Errorf("decoded %d of %d trace records", rd.Records(), socketRecords)
	}
	return time.Since(t0), nil
}

func (w *socketReplay) finish() (ledger, error) {
	// Every Drive call returns drained, so the pool is already quiesced.
	if err := w.p.CheckHealth(); err != nil {
		return ledger{}, err
	}
	return poolLedger(w.p.Stats()), nil
}

func poolLedger(s pool.Stats) ledger {
	terminal := s.Completed + s.Shed + s.Expired + s.Throttled + s.Failed
	return ledger{
		submitted:  s.Submitted,
		completed:  s.Completed,
		failed:     s.Shed + s.Expired + s.Throttled + s.Failed,
		unresolved: s.Submitted - terminal,
		ackedLost:  s.WritesIn - s.WritesAcked - s.WritesFailed - s.WritesShed - s.WritesExpired - s.WritesThrottled,
	}
}

func shapeSocketReplay(m map[string]float64) error {
	if m["pool.held_peak"] == 0 {
		return fmt.Errorf("pool.held_peak 0: admission never held a request")
	}
	if f := m["ledger.failed_frac"]; f > 0.01 {
		return fmt.Errorf("failed_frac %.4f: the replay load is past where shedding takes off", f)
	}
	return nil
}
