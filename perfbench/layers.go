package main

import (
	"time"

	"stms/internal/cache"
	"stms/internal/core"
	"stms/internal/cpu"
	"stms/internal/dram"
	"stms/internal/event"
	"stms/internal/mem"
	"stms/internal/prefetch"
	"stms/internal/sim"
	"stms/internal/trace"
)

// The replay drivers feed one layer's public API the operation stream
// derived from a workload's own tape: the tape's records go through L1
// and L2 caches at the run's geometry, and the resulting L2-miss stream
// drives the MSHR file, the block map, the STMS index and history, the
// prefetch buffer and the DRAM controller. Each driver is timed as a
// whole and reported per operation, so a layer's number moves only
// with that layer's code.

// tally accumulates one driver's time and operation count over tapes.
type tally struct {
	d   time.Duration
	ops uint64
}

func (t *tally) add(start time.Time, ops uint64) {
	t.d += time.Since(start)
	t.ops += ops
}

func (t tally) nsPer() float64 {
	if t.ops == 0 {
		return 0
	}
	return float64(t.d.Nanoseconds()) / float64(t.ops)
}

// replay is the per-layer timing of every driver over a workload's tapes.
type replay struct {
	decode, l1, l2, mshr     tally
	blockmap, update, lookup tally
	history, buffer          tally
	dramReq, events, cpuRecs tally
}

// flatTape is a tape's records in the order the drivers consume them:
// one frame per core in turn, as the simulator's cores interleave.
type flatTape struct {
	blk    []uint64
	instrs []uint32
	core   []uint8
}

func flatten(t *trace.Tape) flatTape {
	var ft flatTape
	f := trace.NewFrame()
	curs := make([]*trace.Cursor, t.Cores())
	for c := range curs {
		curs[c] = t.Cursor(c)
	}
	for live := len(curs); live > 0; {
		live = 0
		for c, cu := range curs {
			n := cu.ReadFrame(f)
			if n == 0 {
				continue
			}
			live++
			ft.blk = append(ft.blk, f.Block[:n]...)
			ft.instrs = append(ft.instrs, f.Instrs[:n]...)
			for i := 0; i < n; i++ {
				ft.core = append(ft.core, uint8(c))
			}
		}
	}
	return ft
}

var sink uint64 // keeps the decode drain from being optimized away

// replayTape runs every simulator-layer driver over one tape and adds
// the timings to r.
func (r *replay) replayTape(tr *tracer, parent int64, t *trace.Tape, cfg sim.Config) {
	// trace: drain every core's cursor frame by frame.
	sp := tr.begin("trace.decode", parent)
	f := trace.NewFrame()
	start := time.Now()
	var n uint64
	for c := 0; c < t.Cores(); c++ {
		cu := t.Cursor(c)
		for k := cu.ReadFrame(f); k > 0; k = cu.ReadFrame(f) {
			sink += f.Block[k-1]
			n += uint64(k)
		}
	}
	r.decode.add(start, n)
	tr.end(sp)

	ft := flatten(t)
	ncores := t.Cores()
	dirtyAt := uint64(t.Spec().DirtyFrac * 1024)
	dirty := func(blk uint64) bool { return (blk*0x9E3779B97F4A7C15)>>54 < dirtyAt }

	// cache: per-core L1s, then the shared L2 behind them.
	sp = tr.begin("cache.l1", parent)
	l1s := make([]*cache.Cache, ncores)
	for c := range l1s {
		l1s[c] = cache.New(cache.Config{Name: "L1", SizeBytes: cfg.L1(), Assoc: cfg.L1Assoc, BlockBytes: mem.BlockBytes})
	}
	l1miss := make([]int32, 0, len(ft.blk)/4)
	start = time.Now()
	for i, b := range ft.blk {
		l1 := l1s[ft.core[i]]
		if !l1.Access(b, false) {
			l1.Fill(b, false)
			l1miss = append(l1miss, int32(i))
		}
	}
	r.l1.add(start, uint64(len(ft.blk)))
	tr.end(sp)

	sp = tr.begin("cache.l2", parent)
	l2 := cache.New(cache.Config{Name: "L2", SizeBytes: cfg.L2(), Assoc: cfg.L2Assoc, BlockBytes: mem.BlockBytes})
	miss := make([]int32, 0, len(l1miss)/2)
	wb := make([]bool, 0, len(l1miss)/2)
	start = time.Now()
	for _, i := range l1miss {
		b := ft.blk[i]
		if !l2.Access(b, false) {
			_, w, _ := l2.Fill(b, dirty(b))
			miss = append(miss, i)
			wb = append(wb, w)
		}
	}
	r.l2.add(start, uint64(len(l1miss)))
	tr.end(sp)

	// cache: the MSHR file, completing the oldest miss when it is full.
	sp = tr.begin("cache.mshr", parent)
	m := cache.NewMSHR(cfg.L2MSHRs, nil)
	fifo := make([]uint64, 0, len(miss))
	start = time.Now()
	var ops uint64
	for k, i := range miss {
		b := ft.blk[i]
		if m.Full() {
			m.Complete(fifo[0], uint64(k))
			fifo = fifo[1:]
			ops++
		}
		if primary, ok := m.Allocate(b); ok && primary {
			fifo = append(fifo, b)
		}
		ops++
	}
	for _, b := range fifo {
		m.Complete(b, uint64(len(miss)))
		ops++
	}
	r.mshr.add(start, ops)
	tr.end(sp)

	// mem: a block map holding a sliding window of recent misses.
	const window = 4096
	sp = tr.begin("mem.blockmap", parent)
	bm := mem.NewBlockMap(window)
	start = time.Now()
	ops = 0
	for k, i := range miss {
		b := ft.blk[i]
		if _, ok := bm.Get(b); !ok {
			bm.Put(b, int32(k))
		}
		ops += 2
		if k >= window {
			bm.Delete(ft.blk[miss[k-window]])
			ops++
		}
	}
	r.blockmap.add(start, ops)
	tr.end(sp)

	// core: the STMS index table at the run's scaled size, every miss
	// an update, then every miss a lookup.
	scfg := core.DefaultConfig(ncores).Scaled(cfg.Scale)
	sp = tr.begin("core.index", parent)
	idx := core.NewIndexTable(scfg.IndexBuckets(), scfg.BucketWays)
	start = time.Now()
	for k, i := range miss {
		idx.Update(ft.blk[i], uint64(ft.core[i])<<56|uint64(k))
	}
	r.update.add(start, uint64(len(miss)))
	start = time.Now()
	for _, i := range miss {
		if _, ok := idx.Lookup(ft.blk[i]); ok {
			sink++
		}
	}
	r.lookup.add(start, uint64(len(miss)))
	tr.end(sp)

	// prefetch: per-core histories append every miss and read the line
	// after the block's previous occurrence, as a stream lookup would.
	prev := make([]int64, len(miss)) // history position of the previous occurrence, or -1
	next := make([]int32, len(miss)) // next miss of the same core, or -1
	{
		last := make([]map[uint64]int64, ncores)
		heads := make([]int64, ncores)
		tail := make([]int32, ncores)
		for c := range last {
			last[c] = map[uint64]int64{}
			tail[c] = -1
		}
		for k, i := range miss {
			c, b := ft.core[i], ft.blk[i]
			if p, ok := last[c][b]; ok {
				prev[k] = p
			} else {
				prev[k] = -1
			}
			last[c][b] = heads[c]
			heads[c]++
			next[k] = -1
			if tail[c] >= 0 {
				next[tail[c]] = int32(k)
			}
			tail[c] = int32(k)
		}
	}
	sp = tr.begin("prefetch.history", parent)
	hists := make([]*prefetch.History, ncores)
	for c := range hists {
		hists[c] = prefetch.NewHistory(scfg.HistoryEntriesPerCore())
	}
	var line prefetch.Line
	start = time.Now()
	ops = 0
	for k, i := range miss {
		h := hists[ft.core[i]]
		h.Append(ft.blk[i])
		if prev[k] >= 0 {
			h.ReadLine(uint64(prev[k])+1, prefetch.LineEntries, &line)
			ops++
		}
		ops++
	}
	r.history.add(start, ops)
	tr.end(sp)

	// prefetch: per-core buffers. A demand miss probes; a probe miss
	// opens a stream of the core's next few misses, which arrive at once.
	const depth = 4
	ecfg := prefetch.DefaultEngineConfig(ncores)
	sp = tr.begin("prefetch.buffer", parent)
	bufs := make([]*prefetch.Buffer, ncores)
	for c := range bufs {
		bufs[c] = prefetch.NewBuffer(ecfg.BufferBlocks)
	}
	start = time.Now()
	ops = 0
	for k, i := range miss {
		buf := bufs[ft.core[i]]
		res, _, _ := buf.Probe(ft.blk[i], nil, 0, 0, 0)
		ops++
		if res.State != prefetch.ProbeMiss {
			continue
		}
		for j, d := next[k], 0; j >= 0 && d < depth; j, d = next[j], d+1 {
			b := ft.blk[miss[j]]
			if buf.Insert(b, uint64(k), uint64(d)) {
				buf.Arrived(b, uint64(k))
				ops += 2
			}
		}
	}
	r.buffer.add(start, ops)
	tr.end(sp)

	// dram: the controller serves the misses as reads and dirty victims
	// as writes, on a clock where every core retires one instruction a
	// cycle; the read latencies feed the event driver below.
	at := make([]uint64, len(miss))
	{
		var clock uint64
		ri := 0
		for k, i := range miss {
			for ; ri <= int(i); ri++ {
				clock += uint64(ft.instrs[ri])
			}
			at[k] = clock / uint64(ncores)
		}
	}
	sp = tr.begin("dram.controller", parent)
	eng := event.NewEngine()
	ctl := dram.New(eng, cfg.DRAM)
	lat := &latencies{out: make([]uint64, 0, len(miss))}
	start = time.Now()
	ops = 0
	for k := range miss {
		eng.RunUntil(at[k])
		ctl.ReadH(dram.Demand, true, lat, 0, eng.Now(), 0)
		ops++
		if wb[k] {
			ctl.Write(dram.Writeback, false)
			ops++
		}
	}
	eng.Drain(nil)
	r.dramReq.add(start, ops)
	tr.end(sp)

	// event: ScheduleH and fire through the engine, with each record's
	// instruction count as a delay and each miss's DRAM latency for its
	// record, on as many chains as a core has ROB entries.
	delays := ft.instrs // reused: the flat tape is not read again
	for k, i := range miss {
		if k < len(lat.out) {
			delays[i] = uint32(lat.out[k])
		}
	}
	sp = tr.begin("event.engine", parent)
	eng = event.NewEngine()
	ch := &chains{eng: eng, delays: delays}
	start = time.Now()
	for j := 0; j < cfg.Core.ROB && ch.next < len(delays); j++ {
		eng.ScheduleH(uint64(delays[ch.next]), ch, 0, 0, 0)
		ch.next++
	}
	eng.Drain(nil)
	r.events.add(start, ch.fired)
	tr.end(sp)

	// cpu: the cores replay the tape's frames on an engine, with every
	// load served at the L2 hit latency.
	sp = tr.begin("cpu.cores", parent)
	eng = event.NewEngine()
	hit := cfg.L2HitCycles
	load := func(_ int, _ uint32, _ uint64, issueAt uint64, _ uint32) cpu.LoadResult {
		return cpu.LoadResult{Sync: true, CompleteAt: issueAt + hit}
	}
	for c := 0; c < ncores; c++ {
		cpu.NewFramed(c, cfg.Core, eng, trace.Frames(t.Cursor(c)), load).Start()
	}
	start = time.Now()
	eng.Drain(nil)
	r.cpuRecs.add(start, uint64(len(ft.blk)))
	tr.end(sp)
}

// latencies records each DRAM read's service latency.
type latencies struct{ out []uint64 }

func (l *latencies) Handle(now uint64, _ uint8, issued, _ uint64) {
	l.out = append(l.out, now-issued)
}

// chains keeps a fixed number of events in flight: each firing
// schedules the next delay.
type chains struct {
	eng    *event.Engine
	delays []uint32
	next   int
	fired  uint64
}

func (c *chains) Handle(uint64, uint8, uint64, uint64) {
	c.fired++
	if c.next < len(c.delays) {
		c.eng.ScheduleH(uint64(c.delays[c.next]), c, 0, 0, 0)
		c.next++
	}
}

// metrics names the replay's per-operation costs.
func (r *replay) metrics(out map[string]float64) {
	out["trace.decode_ns_per_record"] = r.decode.nsPer()
	out["cache.l1_ns_per_access"] = r.l1.nsPer()
	out["cache.l2_ns_per_access"] = r.l2.nsPer()
	out["cache.mshr_ns_per_op"] = r.mshr.nsPer()
	out["mem.blockmap_ns_per_op"] = r.blockmap.nsPer()
	out["core.index_update_ns"] = r.update.nsPer()
	out["core.index_lookup_ns"] = r.lookup.nsPer()
	out["prefetch.history_ns_per_op"] = r.history.nsPer()
	out["prefetch.buffer_ns_per_op"] = r.buffer.nsPer()
	out["dram.ns_per_request"] = r.dramReq.nsPer()
	out["event.ns_per_event"] = r.events.nsPer()
	out["cpu.ns_per_record"] = r.cpuRecs.nsPer()
}
