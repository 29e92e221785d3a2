package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"easycrash/internal/apps"
	"easycrash/internal/cachesim"
	"easycrash/internal/campaignd"
	"easycrash/internal/core"
	"easycrash/internal/faultmodel"
	"easycrash/internal/mem"
	"easycrash/internal/nvct"
	"easycrash/internal/pmemkv"
	"easycrash/internal/sim"
)

// nvmBytes is the simulated NVM capacity nvct.Config defaults to, so rung
// objects sit in the same image size the campaigns' machines use.
const nvmBytes = 64 << 20

// sink and fsink keep the results of timed loads alive.
var (
	sink  uint64
	fsink float64
)

// layerPass is the traced pass over one workload. Every rung is a timing of
// calls into one module's public functions, recorded as spans; v collects the
// per-layer metrics aggregated from them. Rung objects are sized from the
// workload's own reference run, so the cache regime matches the campaign's.
type layerPass struct {
	tr *tracer
	s  *state
	v  map[string]float64

	cfg    cachesim.Config
	g      nvct.Golden // reference run of the workload's first campaign
	ws     uint64      // miss-rung working set: the footprint, at least 4x the LLC
	extent uint64      // image prefix the kernel allocates
}

func newLayerPass(tr *tracer, s *state, g nvct.Golden) *layerPass {
	p := &layerPass{tr: tr, s: s, v: map[string]float64{}, cfg: cachesim.TestConfig(), g: g}
	llc := uint64(p.cfg.Levels[len(p.cfg.Levels)-1].Size)
	p.extent = (g.Footprint + mem.SnapPageSize - 1) &^ (mem.SnapPageSize - 1)
	p.ws = max(p.extent, 4*llc)
	return p
}

// n scales a rung's operation count: the smoke scale runs 1/100 of it.
func (p *layerPass) n(full int) int {
	if p.s.smoke {
		return max(full/100, 4)
	}
	return full
}

// rounds is how many spans a rung records; its metric is their median.
func (p *layerPass) rounds(full int) int {
	if p.s.smoke {
		return max(full/20, 1)
	}
	return full
}

// set stores ns-per-op of a rung's spans under a metric, in the metric's unit.
func (p *layerPass) set(metric, spanName string, nsPerUnit float64) {
	p.v[metric] = p.tr.nsPerOp(spanName) / nsPerUnit
}

func (p *layerPass) memRungs() {
	tr := p.tr
	im := mem.NewImage(nvmBytes)
	var buf [mem.BlockSize]byte
	buf[0] = byte(p.s.seed)
	a := (uint64(p.s.seed) * mem.BlockSize) % p.ws
	next := func(step uint64) uint64 {
		if a += step; a >= p.ws {
			a = 0
		}
		return a
	}
	n := p.n(1_000_000)
	loop := func(f func(addr uint64)) func() int64 {
		return func() int64 {
			for i := 0; i < n; i++ {
				f(next(mem.BlockSize))
			}
			return int64(n)
		}
	}
	tr.rung("mem.read_block", p.rounds(5), nil, loop(func(addr uint64) { im.ReadBlock(addr, buf[:]) }))
	tr.rung("mem.write_block", p.rounds(5), nil, loop(func(addr uint64) { im.WriteBlock(addr, buf[:]) }))
	var rec faultmodel.Recorder
	im.SetWriteHook(rec.ObserveWrite)
	tr.rung("mem.write_block_hooked", p.rounds(5), nil, loop(func(addr uint64) { im.WriteBlock(addr, buf[:]) }))
	im.SetWriteHook(nil)

	// The first Fork copies every page and turns on dirty tracking; the rung
	// is the steady state the tree engine lives in, one dirty page per fork.
	snap := im.Fork(p.extent)
	n = p.n(2000)
	a = 0
	tr.rung("mem.fork", p.rounds(5), runtime.GC, func() int64 {
		for i := 0; i < n; i++ {
			im.WriteBlock(next(mem.SnapPageSize)%p.extent, buf[:])
			snap = im.Fork(p.extent)
		}
		return int64(n)
	})
	tr.rung("mem.restore_snapshot", p.rounds(5), nil, func() int64 {
		for i := 0; i < n; i++ {
			im.RestoreSnapshot(snap)
		}
		return int64(n)
	})
	tr.rung("mem.reset_prefix", p.rounds(5), nil, func() int64 {
		for i := 0; i < n; i++ {
			im.ResetPrefix(p.extent)
		}
		return int64(n)
	})

	p.set("mem.read_block_ns", "mem.read_block", 1)
	p.set("mem.write_block_ns", "mem.write_block", 1)
	p.set("mem.write_block_hooked_ns", "mem.write_block_hooked", 1)
	p.set("mem.fork_us", "mem.fork", 1e3)
	p.set("mem.restore_snapshot_us", "mem.restore_snapshot", 1e3)
	p.set("mem.reset_prefix_us", "mem.reset_prefix", 1e3)
}

func (p *layerPass) cachesimRungs() {
	tr := p.tr
	im := mem.NewImage(nvmBytes)
	h := cachesim.New(p.cfg, im)
	var b8 [8]byte
	b8[0] = byte(p.s.seed)
	l1 := uint64(p.cfg.Levels[0].Size) / 2
	llc := uint64(p.cfg.Levels[len(p.cfg.Levels)-1].Size)

	for a := uint64(0); a < l1; a += cachesim.BlockSize {
		h.Store(0, a, b8[:])
	}
	n := p.n(1_000_000)
	hit := func(f func(core int, addr uint64, buf []byte)) func() int64 {
		return func() int64 {
			a := uint64(0)
			for i := 0; i < n; i++ {
				f(0, a, b8[:])
				if a += 8; a >= l1 {
					a = 0
				}
			}
			return int64(n)
		}
	}
	tr.rung("cachesim.load_hit", p.rounds(5), nil, hit(h.Load))
	tr.rung("cachesim.store_hit", p.rounds(5), nil, hit(h.Store))

	// First touch of exactly one LLC of blocks after a Reset: fills into
	// invalid ways, no victim.
	tr.rung("cachesim.cold_fill", p.rounds(40), h.Reset, func() int64 {
		for a := uint64(0); a < llc; a += cachesim.BlockSize {
			h.Load(0, a, b8[:])
		}
		return int64(llc / cachesim.BlockSize)
	})

	// Block-strided store stream over 4x the LLC in steady state: every
	// store is a miss at every level, a dirty victim written back, a fill.
	storeSweep := func() {
		for a := uint64(0); a < p.ws; a += cachesim.BlockSize {
			h.Store(0, a, b8[:])
		}
	}
	storeSweep()
	n = p.n(200_000)
	tr.rung("cachesim.evict_fill", p.rounds(5), nil, func() int64 {
		a := uint64(0)
		for i := 0; i < n; i++ {
			h.Store(0, a, b8[:])
			if a += cachesim.BlockSize; a >= p.ws {
				a = 0
			}
		}
		return int64(n)
	})

	// The same element sweep (store the working set, load it back) on the
	// run API and on a stream handle: if the two read equal, one batched
	// form suffices (ROADMAP item 2(c)).
	chunk := make([]byte, 4096)
	sweeps := p.n(40)
	tr.rung("cachesim.run", p.rounds(5), nil, func() int64 {
		for k := 0; k < sweeps; k++ {
			for a := uint64(0); a < p.ws; a += uint64(len(chunk)) {
				h.StoreRun(0, a, chunk)
			}
			for a := uint64(0); a < p.ws; a += uint64(len(chunk)) {
				h.LoadRun(0, a, chunk)
			}
		}
		return int64(sweeps) * 2 * int64(p.ws/8)
	})
	st := h.NewStream()
	tr.rung("cachesim.stream", p.rounds(5), nil, func() int64 {
		for k := 0; k < sweeps; k++ {
			for a := uint64(0); a < p.ws; a += 8 {
				st.Store8(0, a, a)
			}
			for a := uint64(0); a < p.ws; a += 8 {
				sink += st.Load8(0, a)
			}
		}
		return int64(sweeps) * 2 * int64(p.ws/8)
	})

	// Flush rungs over the candidates' bytes, clipped so they stay resident.
	h.Reset()
	flushBytes := min(p.g.CandidateBytes, llc/2) &^ (cachesim.BlockSize - 1)
	dirty := func() {
		for a := uint64(0); a < flushBytes; a += cachesim.BlockSize {
			h.Store(0, a, b8[:])
		}
	}
	flush := func() int64 { return int64(h.Flush(0, flushBytes, cachesim.CLWB).Blocks) }
	for r := 0; r < p.rounds(100); r++ {
		dirty()
		tr.do("cachesim.flush_dirty", flush)
		tr.do("cachesim.flush_clean", flush)
	}
	tr.rung("cachesim.writeback_all", p.rounds(100), dirty, func() int64 {
		h.WriteBackAll()
		return 0
	})

	// Snapshot rungs on a full, dirty hierarchy, as at a dense fork point.
	storeSweep()
	snap := h.Snapshot()
	n = p.n(2000)
	tr.rung("cachesim.snapshot", p.rounds(5), runtime.GC, func() int64 {
		for i := 0; i < n; i++ {
			snap = h.Snapshot()
		}
		return int64(n)
	})
	tr.rung("cachesim.dirty_bytes_in", p.rounds(5), nil, func() int64 {
		for i := 0; i < n; i++ {
			for _, c := range p.g.Candidates {
				sink += h.DirtyBytesIn(c.Addr, c.Size)
			}
		}
		return int64(n * len(p.g.Candidates))
	})
	// ResumeFrom wants a freshly Reset hierarchy, so the two alternate.
	for r := 0; r < p.rounds(300); r++ {
		tr.do("cachesim.reset", func() int64 { h.Reset(); return 0 })
		tr.do("cachesim.resume", func() int64 { h.ResumeFrom(snap); return 0 })
	}

	p.set("cachesim.load_hit_ns", "cachesim.load_hit", 1)
	p.set("cachesim.store_hit_ns", "cachesim.store_hit", 1)
	p.set("cachesim.cold_fill_ns", "cachesim.cold_fill", 1)
	p.set("cachesim.evict_fill_ns", "cachesim.evict_fill", 1)
	p.set("cachesim.run_ns_per_elem", "cachesim.run", 1)
	p.set("cachesim.stream_ns_per_elem", "cachesim.stream", 1)
	p.set("cachesim.flush_dirty_ns_per_block", "cachesim.flush_dirty", 1)
	p.set("cachesim.flush_clean_ns_per_block", "cachesim.flush_clean", 1)
	p.set("cachesim.writeback_all_us", "cachesim.writeback_all", 1e3)
	p.set("cachesim.snapshot_us", "cachesim.snapshot", 1e3)
	p.set("cachesim.resume_us", "cachesim.resume", 1e3)
	p.set("cachesim.reset_us", "cachesim.reset", 1e3)
	p.set("cachesim.dirty_bytes_in_us", "cachesim.dirty_bytes_in", 1e3)
}

// simCounts reports the simulated statistics of the reference run. They are
// exact: every commit must reproduce them.
func (p *layerPass) simCounts() {
	st := p.g.CacheStats
	ratio := func(a, b uint64) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}
	last := len(st.Hits) - 1
	p.v["cachesim.sim.loads"] = float64(st.Loads)
	p.v["cachesim.sim.stores"] = float64(st.Stores)
	p.v["cachesim.sim.l1_hit_ratio"] = ratio(st.Hits[0], st.Misses[0])
	p.v["cachesim.sim.llc_miss_ratio"] = ratio(st.Misses[last], st.Hits[last])
	p.v["cachesim.sim.fills"] = float64(st.Fills)
	p.v["cachesim.sim.eviction_writebacks"] = float64(st.EvictionWritebacks)
	p.v["cachesim.sim.dirty_flushes"] = float64(st.DirtyFlushes)
	p.v["cachesim.sim.clean_flushes"] = float64(st.CleanFlushes)
}

func (p *layerPass) simRungs(faults faultmodel.Config) {
	tr := p.tr
	m := sim.NewMachine(nvmBytes, p.cfg)
	elems := int(p.ws / 8)
	o := m.Space().AllocF64("x", elems, true)
	v := m.F64(o)
	stream := m.F64Stream(o)
	chunk := make([]float64, 512)
	// dirty stores every element of an object through the run API.
	dirty := func(ov sim.F64Slice) {
		for i := 0; i < ov.Len(); i += len(chunk) {
			ov.StoreRun(i, chunk[:min(len(chunk), ov.Len()-i)])
		}
	}
	sweeps := p.n(20)
	each := func(store, load func()) func() int64 {
		return func() int64 {
			for k := 0; k < sweeps; k++ {
				store()
				load()
			}
			return int64(sweeps) * 2 * int64(elems)
		}
	}

	m.MainLoopBegin()
	tr.rung("sim.scalar", p.rounds(5), nil, each(
		func() {
			for i := 0; i < elems; i++ {
				v.Set(i, float64(i))
			}
		},
		func() {
			for i := 0; i < elems; i++ {
				fsink += v.At(i)
			}
		}))
	tr.rung("sim.run", p.rounds(5), nil, each(
		func() { dirty(v) },
		func() {
			for i := 0; i < elems; i += len(chunk) {
				v.LoadRun(i, chunk)
			}
		}))
	tr.rung("sim.stream", p.rounds(5), nil, each(
		func() {
			for i := 0; i < elems; i++ {
				stream.Set(i, float64(i))
			}
		},
		func() {
			for i := 0; i < elems; i++ {
				fsink += stream.At(i)
			}
		}))

	snap := m.Fork()
	n := p.n(2000)
	tr.rung("sim.fork", p.rounds(5), runtime.GC, func() int64 {
		for i := 0; i < n; i++ {
			v.Set((i*512)%elems, float64(i)) // one dirty page per fork
			snap = m.Fork()
		}
		return int64(n)
	})
	m.MainLoopEnd()

	m2 := sim.NewMachine(nvmBytes, p.cfg)
	for r := 0; r < p.rounds(300); r++ {
		tr.do("sim.resume", func() int64 { m2.ResumeFrom(snap); return 0 })
		tr.do("sim.reset", func() int64 { m2.Reset(); return 0 })
	}

	// FlushObject over objects laid out like the workload's candidates, each
	// dirtied through the cache first.
	m3 := sim.NewMachine(nvmBytes, p.cfg)
	var objs []mem.Object
	for _, c := range p.g.Candidates {
		objs = append(objs, m3.Space().Alloc(c.Name, c.Size, true))
	}
	m3.MainLoopBegin()
	tr.rung("sim.flush_object", p.rounds(100), func() {
		for _, ob := range objs {
			dirty(m3.F64(ob))
		}
	}, func() int64 {
		for _, ob := range objs {
			m3.FlushObject(ob, cachesim.CLFLUSHOPT)
		}
		return int64(len(objs))
	})
	m3.MainLoopEnd()

	// Power loss under the workload's fault configuration (with faults off
	// this is the cache drop alone). Each round rebuilds the machine state:
	// a crash may poison blocks a later fill would trip over.
	m4 := sim.NewMachine(nvmBytes, p.cfg)
	round := int64(0)
	tr.rung("sim.crash_with_faults", p.rounds(200), func() {
		m4.Reset()
		ov := m4.F64(m4.Space().AllocF64("x", elems/4, true))
		if faults.Enabled() {
			round++
			m4.AttachFaults(faultmodel.New(faults, p.s.seed+round))
		}
		m4.MainLoopBegin()
		dirty(ov)
		m4.MainLoopEnd()
	}, func() int64 {
		m4.CrashWithFaults()
		return 0
	})

	p.set("sim.scalar_ns_per_elem", "sim.scalar", 1)
	p.set("sim.run_ns_per_elem", "sim.run", 1)
	p.set("sim.stream_ns_per_elem", "sim.stream", 1)
	p.set("sim.fork_us", "sim.fork", 1e3)
	p.set("sim.resume_us", "sim.resume", 1e3)
	p.set("sim.reset_us", "sim.reset", 1e3)
	p.set("sim.flush_object_us", "sim.flush_object", 1e3)
	p.set("sim.crash_with_faults_us", "sim.crash_with_faults", 1e3)
}

// faultmodelRungs time the injector at the workload's extent and RBER.
func (p *layerPass) faultmodelRungs(faults faultmodel.Config) {
	tr := p.tr
	im := mem.NewImage(nvmBytes)
	in := faultmodel.New(faults, p.s.seed)
	var old, cur [mem.BlockSize]byte
	cur[8] = 1
	n := p.n(1_000_000)
	tr.rung("faultmodel.observe_write", p.rounds(5), nil, func() int64 {
		for i := 0; i < n; i++ {
			in.ObserveWrite(uint64(i%1024)*mem.BlockSize, old[:], cur[:])
		}
		return int64(n)
	})
	heal := func(inj faultmodel.Injection) {
		if inj.PoisonedBlocks > 0 {
			for _, b := range im.PoisonedBlocks() {
				im.ClearPoison(b)
			}
		}
	}
	n = p.n(2000)
	tr.rung("faultmodel.apply_crash", p.rounds(5), nil, func() int64 {
		for i := 0; i < n; i++ {
			in.ObserveWrite(uint64(i%1024)*mem.BlockSize, old[:], cur[:])
			in.ArmTear()
			heal(in.ApplyCrash(im, p.extent))
		}
		return int64(n)
	})
	inflight := faultmodel.InFlight{Base: mem.BlockSize}
	tr.rung("faultmodel.replay_crash", p.rounds(5), nil, func() int64 {
		for i := 0; i < n; i++ {
			heal(in.ReplayCrash(im, p.extent, &inflight))
		}
		return int64(n)
	})
	p.set("faultmodel.observe_write_ns", "faultmodel.observe_write", 1)
	p.set("faultmodel.apply_crash_us", "faultmodel.apply_crash", 1e3)
	p.set("faultmodel.replay_crash_us", "faultmodel.replay_crash", 1e3)
}

// appsRungs time the kernel itself: Setup+Init+Run on a machine recycled with
// Reset, as the engine's machine pool does.
func (p *layerPass) appsRungs(kernel string) error {
	factory, err := apps.New(kernel, apps.ProfileTest)
	if err != nil {
		return err
	}
	m := sim.NewMachine(nvmBytes, p.cfg)
	var k apps.Kernel
	var runErr error
	p.tr.rung("apps.kernel_run", p.rounds(5), func() {
		m.Reset()
		k = factory()
	}, func() int64 {
		k.Setup(m)
		k.Init(m)
		if _, err := k.Run(m, 0, 2*k.NominalIters()); err != nil {
			runErr = err
		}
		return int64(m.MainAccesses())
	})
	if runErr != nil {
		return fmt.Errorf("%s kernel run: %w", kernel, runErr)
	}
	p.v["apps.kernel_run_ms"] = median(p.tr.durationsNS("apps.kernel_run")) / 1e6
	p.v["apps.sim_accesses"] = float64(m.MainAccesses())
	p.set("apps.host_ns_per_sim_access", "apps.kernel_run", 1)
	return nil
}

// pmemkvRungs time the KV store's own phases: the run, the recovery replay
// and the oracle's audit.
func (p *layerPass) pmemkvRungs() error {
	tr := p.tr
	m := sim.NewMachine(nvmBytes, p.cfg)
	for r := 0; r < p.rounds(100); r++ {
		m.Reset()
		st := pmemkv.New(apps.ProfileTest)
		var err error
		tr.do("pmemkv.run", func() int64 {
			st.Setup(m)
			st.Init(m)
			_, err = st.Run(m, 0, st.NominalIters())
			return 0
		})
		if err != nil {
			return fmt.Errorf("pmemkv run: %w", err)
		}
		tr.do("pmemkv.post_restart", func() int64 { st.PostRestart(m, 0); return 0 })
		var audit apps.Audit
		tr.do("pmemkv.audit", func() int64 { audit = st.Audit(m, st.Journal()); return 0 })
		if audit.Detected != nil || len(audit.Violations) > 0 {
			return fmt.Errorf("pmemkv audit of an uncrashed run: %v %v", audit.Detected, audit.Violations)
		}
	}
	p.set("pmemkv.run_ms", "pmemkv.run", 1e6)
	p.set("pmemkv.post_restart_us", "pmemkv.post_restart", 1e3)
	p.set("pmemkv.audit_us", "pmemkv.audit", 1e3)
	return nil
}

// nvctRungs time the engine's public entry points on the workload's first
// campaign: golden run, report serialisation, the two half shards and their
// merge, and the same campaign at Parallel 2. unsharded is that campaign's
// in-process wall at Parallel 1.
func (p *layerPass) nvctRungs(unsharded float64) ([]*nvct.ShardReport, error) {
	tr := p.tr
	c := p.s.camps[0]
	var factories []apps.Factory
	for _, cc := range p.s.camps {
		factory, err := apps.New(cc.def.kernel, apps.ProfileTest)
		if err != nil {
			return nil, err
		}
		factories = append(factories, factory)
	}
	var err error
	tr.rung("nvct.NewTester", p.rounds(5), runtime.GC, func() int64 {
		for _, factory := range factories {
			if _, e := nvct.NewTester(factory, nvct.Config{Cache: p.cfg}); e != nil {
				err = e
			}
		}
		return 0
	})
	if err != nil {
		return nil, err
	}
	p.set("nvct.golden_run_ms", "nvct.NewTester", 1e6)

	ctx := context.Background()
	var parts []*nvct.ShardReport
	var slowest, sum float64
	for i := 0; i < 2; i++ {
		var part *nvct.ShardReport
		var err error
		d := tr.do("nvct.RunShardContext", func() int64 {
			part, err = c.tester.RunShardContext(ctx, c.policy, c.opts, nvct.Shard{Index: i, Count: 2}, nil)
			return 0
		})
		if err != nil {
			return nil, err
		}
		parts = append(parts, part)
		slowest, sum = max(slowest, d), sum+d
	}
	shardJSON, err := parts[0].JSON()
	if err != nil {
		return nil, err
	}
	var merged *nvct.Report
	var b []byte
	for r := 0; r < p.rounds(5) && err == nil; r++ {
		tr.do("nvct.MergeShards", func() int64 { merged, err = nvct.MergeShards(c.policy, parts); return 0 })
		if err == nil {
			tr.do("nvct.Report.JSON", func() int64 { b, err = merged.JSON(); return 0 })
		}
		if err == nil {
			tr.do("nvct.ParseShardReport", func() int64 { _, err = nvct.ParseShardReport(shardJSON); return 0 })
		}
	}
	if err != nil {
		return nil, err
	}
	p.v["nvct.shard_run_ms"] = slowest * 1e3
	p.v["nvct.shard_work_inflation"] = sum / unsharded
	p.set("nvct.merge_shards_ms", "nvct.MergeShards", 1e6)
	p.set("nvct.parse_shard_ms", "nvct.ParseShardReport", 1e6)
	p.set("nvct.report_json_ms", "nvct.Report.JSON", 1e6)
	p.v["nvct.report_bytes"] = float64(len(b))

	par2 := c.opts
	par2.Parallel = 2
	d := tr.do("nvct.RunCampaignContext.parallel2", func() int64 {
		_, err = c.tester.RunCampaignContext(ctx, c.policy, par2)
		return 0
	})
	if err != nil {
		return nil, err
	}
	p.v["nvct.parallel2_speedup"] = unsharded / d
	return parts, nil
}

// campaigndRungs time the supervisor in-process, with the built binary as the
// worker: a full two-shard run, a one-trial one-shard run (what a campaign
// pays before its first trial), and failure classification.
func (p *layerPass) campaigndRungs(parts []*nvct.ShardReport) error {
	tr := p.tr
	c := p.s.camps[0]
	run := func(span, dir string, tests, shards int) (*campaignd.Result, float64, error) {
		opts := c.opts
		opts.Tests = tests
		cfg := campaignd.Config{
			Spec:          &campaignd.Spec{Kernel: c.def.kernel, Policy: c.policy, Opts: opts},
			Shards:        shards,
			RunDir:        filepath.Join(p.s.tmp, dir),
			WorkerCommand: []string{p.s.bin, "worker"},
		}
		var res *campaignd.Result
		var err error
		d := tr.do(span, func() int64 { res, err = campaignd.Run(context.Background(), cfg); return 0 })
		if err == nil && !res.Complete {
			err = fmt.Errorf("campaignd.Run delivered %d of %d trials", len(res.Report.Tests), tests)
		}
		return res, d, err
	}
	res, d, err := run("campaignd.Run", "supervised", c.opts.Tests, p.s.w.sharded)
	if err != nil {
		return err
	}
	p.v["campaignd.run_s"] = d
	p.v["campaignd.overhead_s"] = d - p.v["nvct.shard_run_ms"]/1e3
	p.v["campaignd.run_dir_kb"] = dirKB(res.RunDir)
	for _, sh := range res.Shards {
		p.v["campaignd.retries"] += float64(sh.Attempts - 1)
	}
	if _, d, err = run("campaignd.Run.cold", "cold", 1, 1); err != nil {
		return err
	}
	p.v["campaignd.cold_start_ms"] = d * 1e3
	p.v["campaignd.classify_failures_ms"] = 1e3 * tr.do("campaignd.ClassifyFailures", func() int64 {
		campaignd.ClassifyFailures(parts)
		return 0
	})
	return nil
}

// coreRungs put a number on the four-step workflow the campaigns feed.
func (p *layerPass) coreRungs() error {
	c := p.s.camps[0]
	tests := p.n(200)
	base, err := c.tester.RunCampaignContext(context.Background(), nil, nvct.CampaignOpts{Tests: tests, Seed: p.s.seed, Parallel: 1})
	if err != nil {
		return err
	}
	p.v["core.select_objects_ms"] = 1e3 * p.tr.do("core.SelectObjects", func() int64 {
		core.SelectObjects(base, 0.01)
		return 0
	})
	p.v["core.workflow_s"] = p.tr.do("core.RunWithTester", func() int64 {
		_, err = core.RunWithTester(c.tester, core.Config{Tests: tests, Seed: p.s.seed})
		return 0
	})
	return err
}

// peakRSSMB reads the process's high-water resident set from /proc; 0 where
// there is none.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// tracedPass runs the workload once more under the tracer and aggregates the
// per-layer metrics from the spans. untracedP50 is the median campaign wall of
// the untraced reps; rep0 is their first result, which the traced campaign
// must reproduce byte for byte.
func tracedPass(tr *tracer, s *state, rep0 *repResult, untracedP50 float64, want []pin) (map[string]float64, *repResult, *checked, error) {
	root := tr.begin(s.w.name)
	defer func() { tr.end(root, 0) }()

	runtime.GC()
	var traced *repResult
	var err error
	name := "nvct.RunCampaignContext"
	if s.w.sharded > 0 {
		name = "campaignrunner"
	}
	tr.do(name, func() int64 { traced, err = s.rep(); return 0 })
	if err != nil {
		return nil, nil, nil, err
	}
	ck, err := s.check(tr, traced, want)
	if err != nil {
		return nil, nil, nil, err
	}
	for i := range traced.jsons {
		if digest(traced.jsons[i]) != digest(rep0.jsons[i]) {
			ck.failures = append(ck.failures, "(a) traced campaign's report differs from the untraced rep's")
		}
	}

	c := s.camps[0]
	p := newLayerPass(tr, s, ck.refs[0])
	in := ck.inProcess
	p.v["trace.overhead_ratio"] = traced.wall / untracedP50
	p.v["nvct.reference_run_ms"] = ck.refRunS * 1e3
	p.v["nvct.prefix_share"] = ck.refRunS / in.wall
	p.v["nvct.live_trial_p50_ms"] = quantile(ck.liveS, 0.5) * 1e3
	p.v["nvct.live_trial_p90_ms"] = quantile(ck.liveS, 0.9) * 1e3
	var live float64
	for _, d := range ck.liveS {
		live += d
	}
	p.v["nvct.share_factor"] = float64(s.trials) * live / float64(len(ck.liveS)) / in.wall
	p.v["nvct.alloc_mb_per_campaign"] = float64(in.allocBytes) / (1 << 20) / float64(len(s.camps))
	var s1, tests int
	for _, rep := range in.reports {
		for o := 0; o < nvct.NumOutcomes; o++ {
			p.v["nvct.outcome."+nvct.Outcome(o).String()] += float64(rep.Counts[o])
		}
		s1, tests = s1+rep.Counts[nvct.S1], tests+len(rep.Tests)
	}
	p.v["nvct.recomputability"] = float64(s1) / float64(tests)
	p.simCounts()

	parts, err := p.nvctRungs(in.campWall[0])
	if err != nil {
		return nil, nil, nil, err
	}
	if s.w.sharded > 0 {
		if err := p.campaigndRungs(parts); err != nil {
			return nil, nil, nil, err
		}
	}
	if s.w.workflow {
		if err := p.coreRungs(); err != nil {
			return nil, nil, nil, err
		}
	}
	if strings.HasPrefix(c.def.kernel, "pmemkv") {
		if err := p.pmemkvRungs(); err != nil {
			return nil, nil, nil, err
		}
	}
	if c.opts.Faults.Enabled() {
		p.faultmodelRungs(c.opts.Faults)
	}
	p.memRungs()
	p.cachesimRungs()
	p.simRungs(c.opts.Faults)
	if err := p.appsRungs(c.def.kernel); err != nil {
		return nil, nil, nil, err
	}
	p.v["nvct.peak_rss_mb"] = peakRSSMB()
	return p.v, traced, ck, nil
}
