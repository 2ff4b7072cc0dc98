package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"

	"nvdimmc/internal/core"
	"nvdimmc/internal/fault"
	"nvdimmc/internal/metrics"
	"nvdimmc/internal/numa"
	"nvdimmc/internal/pool"
	"nvdimmc/internal/sim"
	"nvdimmc/internal/workload/openloop"
)

// fabric-faults: a 2-socket fabric of 3 small channels per socket, driven
// through Submit/Step/Poll by a socket-affine open loop plus a roamer that
// addresses the whole fabric from socket 0, so about a tenth of requests
// cross the interconnect. Seeded rules put a NAND program failure and
// correctable read bit flips on every member and die timeouts on socket 1;
// the faults are all recoverable, so no request fails, but they drive the
// fault registry, FTL grown-bad handling and slow completions.
const (
	fabricSockets  = 2
	fabricChannels = 3
	// fabricRate is the aggregate arrival rate in requests per simulated
	// second, below where the members' FTLs start stalling writes.
	fabricRate = 10e3
	// fabricBlock is the number of terminal requests in one block.
	fabricBlock = 1000
)

func fabricMember() core.Config {
	cfg := core.DefaultConfig()
	cfg.CacheBytes = 1 << 20
	cfg.NAND.BlocksPerDie = 32
	cfg.NAND.PagesPerBlock = 16
	// Half the raw blocks spare, as the overload experiment's members: with
	// 16-page blocks and the default 6.25% the FTL stalls writes under this
	// load and its stalled-write queue grows without bound.
	cfg.FTL.OverProvisionPct = 50
	return cfg
}

// fabricFaultArmer returns the recoverable fault mix: one program failure
// per member at a seeded program between the 50th and the 449th (the FTL
// retires the block and remaps), 8-bit read flips (within the ECC budget)
// on 1% of reads everywhere, and 4x die timeouts on 2% of socket 1's die
// operations (slow, well inside the driver's ack deadline).
//
// Program failures are one-shot rather than probabilistic because a block
// retired by one is then picked as a garbage-collection victim over and
// over (the FTL bad-block loop): a die holding one stops reclaiming, and a
// member whose dies all stop stalls writes without bound. One per member
// keeps the loop visible in ftl.grown_bad while every member keeps
// reclaiming space.
func fabricFaultArmer(seed uint64) func(socket, member int, g *fault.Registry) {
	return func(socket, member int, g *fault.Registry) {
		rng := sim.NewRand(sim.SplitSeed(seed, fmt.Sprintf("perfbench/fabric/program-fail/%d/%d", socket, member)))
		g.OnOccurrence(fault.NANDProgramFail, uint64(50+rng.Intn(400)))
		g.Prob(fault.NANDReadBitFlip, 1e-2).Param(8)
		if socket == 1 {
			g.Prob(fault.NANDDieTimeout, 2e-2).Param(4)
		}
	}
}

type fabricFaults struct {
	f     *numa.Fabric
	gen   *openloop.Generator
	next  openloop.Request
	epoch sim.Duration

	terminal uint64
	lat      *metrics.Histogram
	hash     hash.Hash64
	rec      [32]byte
}

func setupFabricFaults(seed uint64, workers int) (workload, error) {
	f, err := numa.New(numa.Config{
		Sockets: fabricSockets,
		Pool: pool.Config{
			Channels:        fabricChannels,
			DIMMsPerChannel: 1,
			Interleave:      core.PageSize,
			Member:          fabricMember(),
			PrefillPages:    -1,
		},
		ChunkBytes: 64 << 10,
		Workers:    workers,
		Seed:       sim.SplitSeed(seed, "perfbench/fabric"),
		ArmFaults:  fabricFaultArmer(seed),
	})
	if err != nil {
		return nil, err
	}
	ts := make([]openloop.Tenant, 0, fabricSockets+1)
	for s := 0; s < fabricSockets; s++ {
		ts = append(ts, openloop.Tenant{
			Name: fmt.Sprintf("s%d", s), Socket: s, Dist: openloop.Uniform,
			ReadPct: 20, Weight: 2, Footprint: f.Span(), Offset: int64(s) * f.Span(),
		})
	}
	ts = append(ts, openloop.Tenant{
		Name: "roam", Socket: 0, Dist: openloop.Uniform,
		ReadPct: 20, Weight: 1, Footprint: f.Capacity(),
	})
	gen, err := openloop.New(openloop.Config{
		Seed:       sim.SplitSeed(seed, "perfbench/fabric/load"),
		RatePerSec: fabricRate,
		Tenants:    ts,
	})
	if err != nil {
		return nil, err
	}
	return &fabricFaults{
		f: f, gen: gen, next: gen.Next(), epoch: f.Socket(0).Cfg.Epoch,
		lat: metrics.NewHistogram(), hash: fnv.New64a(),
	}, nil
}

// block submits every arrival due before the next epoch boundary, steps
// the fabric one epoch and polls its completions, until fabricBlock
// requests reached a terminal outcome.
func (w *fabricFaults) block() (int, error) {
	target := w.terminal + fabricBlock
	for w.terminal < target {
		end := w.f.Now() + w.epoch
		for w.next.Arrival < end {
			var err error
			q := w.next
			timed(&boundaries.numaSubmit, func() { _, err = w.f.Submit(q) })
			if err != nil {
				w.terminal++ // refused at admission: terminal, and in the ledger
			}
			w.next = w.gen.Next()
		}
		timed(&boundaries.numaStep, w.f.Step)
		var cs []pool.Completion
		timed(&boundaries.numaPoll, func() { cs = w.f.Poll(0) })
		for _, c := range cs {
			w.lat.Record(c.Latency)
			binary.LittleEndian.PutUint64(w.rec[0:], c.ID)
			binary.LittleEndian.PutUint64(w.rec[8:], uint64(c.Outcome)<<1|b2u(c.Write))
			binary.LittleEndian.PutUint64(w.rec[16:], uint64(c.At))
			binary.LittleEndian.PutUint64(w.rec[24:], uint64(c.Latency))
			w.hash.Write(w.rec[:])
		}
		w.terminal += uint64(len(cs))
	}
	return fabricBlock, nil
}

func (w *fabricFaults) simNow() float64 { return w.f.Now().Seconds() }

func (w *fabricFaults) counters() (map[string]float64, map[string]float64) {
	ctr := map[string]float64{}
	gauge := map[string]float64{}
	for s := 0; s < fabricSockets; s++ {
		p := w.f.Socket(s)
		for i := 0; i < p.Members(); i++ {
			addSystem(ctr, p.Member(i))
		}
		ps := p.Stats()
		ctr["pool.epochs"] += float64(ps.Epochs)
		ctr["pool.completed"] += float64(ps.Completed)
		ctr["pool.shed"] += float64(ps.Shed)
		ctr["pool.expired"] += float64(ps.Expired)
		gauge["pool.held_peak"] = max(gauge["pool.held_peak"], float64(ps.HeldPeak))
		gauge["pool.sim_p99_us"] = max(gauge["pool.sim_p99_us"], ps.Lat.Percentile(99).Microseconds())
		gauge["pool.sim_MBps"] += ratio(float64(ps.Meter.Bytes())/1e6, ps.Meter.Elapsed().Seconds())
	}
	fs := w.f.Stats()
	ctr["numa.retries"] = float64(fs.Ctr.Get("fab-retry-promoted"))
	gauge["numa.remote_ratio"] = ratio(float64(fs.RemoteRequests), float64(fs.Submitted))
	gauge["numa.sim_p99_us"] = w.lat.Percentile(99).Microseconds()
	return ctr, gauge
}

func (w *fabricFaults) digest() uint64 { return w.hash.Sum64() }

func (w *fabricFaults) finish() (ledger, error) {
	if err := w.f.Drain(); err != nil {
		return ledger{}, err
	}
	if err := w.f.CheckHealth(); err != nil {
		return ledger{}, err
	}
	s := w.f.Stats()
	for i, ss := range s.PerSocket {
		if ss.State != numa.SocketUp && ss.State != numa.SocketSuspect {
			return ledger{}, fmt.Errorf("socket %d ended %v (%s): recoverable faults condemned it", i, ss.State, ss.Reason)
		}
	}
	terminal := s.Completed + s.Failed + s.Shed + s.Expired + s.Throttled
	return ledger{
		submitted:  s.Submitted,
		completed:  s.Completed,
		failed:     s.Failed + s.Shed + s.Expired + s.Throttled,
		unresolved: s.Submitted - terminal,
		ackedLost:  s.WritesIn - s.WritesAcked - s.WritesFailed - s.WritesShed - s.WritesExpired - s.WritesThrottled,
	}, nil
}

func shapeFabricFaults(m map[string]float64) error {
	for _, k := range []string{"fault.fired", "numa.remote_ratio", "ftl.grown_bad"} {
		if m[k] == 0 {
			return fmt.Errorf("%s 0: the fabric workload bypassed its fault, interconnect or grown-bad path", k)
		}
	}
	return nil
}
