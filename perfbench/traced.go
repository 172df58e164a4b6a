package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"stms"
	"stms/internal/ckpt"
	"stms/internal/dram"
	"stms/internal/sim"
	"stms/internal/stream"
	"stms/internal/trace"
)

// simulatedMetrics reports the simulated end-to-end figures of the
// workloads they apply to.
func simulatedMetrics(ctx context.Context, w *workload, e *env, out *outcome, want map[string]string, rep *report) error {
	switch w.name {
	case "fig8-timed", "remote-ckpt":
		var logSum, cov, ovh float64
		n := 0
		for _, wl := range e.size.fig8 {
			base := out.results[cellSpec{wl, baseline, "timed", e.size.warm, e.size.measure}.id()]
			st := out.results[cellSpec{wl, stmsP, "timed", e.size.warm, e.size.measure}.id()]
			if base == nil || st == nil || base.IPC == 0 {
				continue
			}
			logSum += math.Log(st.IPC / base.IPC)
			cov += st.Coverage()
			l, u, er := st.OverheadPerBaselineRead()
			ovh += l + u + er
			n++
		}
		if n > 0 {
			rep.set("sim_stms_speedup", math.Exp(logSum/float64(n)))
			rep.set("sim_stms_coverage", cov/float64(n))
			rep.set("sim_meta_overhead", ovh/float64(n))
		}
	case "sampled-oltp":
		// The exact twin runs once, after the measured iterations.
		cells := w.cells(e.size)
		sampled, exactCell := out.results[cells[0].id()], cells[1]
		tape, err := e.build(exactCell.tape())
		if err != nil {
			return err
		}
		d, exact, err := runDirect(ctx, e, exactCell, tape)
		rep.check([]op{{exactCell.id(), d, err}}, want)
		if err == nil && sampled != nil {
			rep.set("sample_err_pct", 100*worstRelErr(sampled, exact))
		}
	}
	return nil
}

// worstRelErr is the largest relative error of the sampled estimate in
// IPC, MLP, DRAM utilisation or coverage against the exact run.
func worstRelErr(got, want *sim.Results) float64 {
	worst := 0.0
	for _, p := range [][2]float64{
		{got.IPC, want.IPC}, {got.MLP, want.MLP},
		{got.DRAMUtil, want.DRAMUtil}, {got.Coverage(), want.Coverage()},
	} {
		if e := math.Abs(p[0]-p[1]) / math.Max(math.Abs(p[1]), 1e-9); e > worst {
			worst = e
		}
	}
	return worst
}

// checkKnown checks an op from a replay driver when its result has an
// expected digest; others count only if they failed outright.
func (r *report) checkKnown(o op, want map[string]string) {
	if _, ok := want[o.id]; ok || o.err != nil {
		r.check([]op{o}, want)
	}
}

// tracedRun runs one untraced and one traced iteration, then the replay
// drivers over the workload's own tapes, and reports the per-layer
// metrics, the self time of each layer and the spans.
func tracedRun(ctx context.Context, w *workload, e *env, want map[string]string, rep *report, outDir string) error {
	plain, err := iterate(ctx, w, e)
	if err != nil {
		return err
	}
	rep.check(plain.out.ops, want)

	tr := newTracer()
	te := *e
	te.tr = tr
	te.root = tr.begin("bench.iteration "+w.name, 0)
	traced, err := iterate(ctx, w, &te)
	tr.end(te.root)
	if err != nil {
		return err
	}
	rep.check(traced.out.ops, want)
	rep.Iterations, rep.Records = 2, traced.out.records
	rep.WallS = []float64{plain.wall.Seconds(), traced.wall.Seconds()}
	lm := map[string]float64{"bench.tracing_overhead_s": (traced.wall - plain.wall).Seconds()}
	rep.Notes = append(rep.Notes, fmt.Sprintf("tracing overhead: traced %.4f s - untraced %.4f s = %+.4f s wall",
		traced.wall.Seconds(), plain.wall.Seconds(), lm["bench.tracing_overhead_s"]))

	te.root = tr.begin("bench.replay "+w.name, 0)
	ids := w.tapes(e.size)
	var tapes []*trace.Tape
	var gen tally
	var tapeBytes int64
	for _, id := range ids {
		sp := tr.begin("trace.gen "+id.workload, te.root)
		start := time.Now()
		t, err := e.build(id)
		if err != nil {
			return err
		}
		gen.add(start, id.perCore()*cores)
		tr.end(sp)
		tapes = append(tapes, t)
		tapeBytes += t.Bytes()
	}
	lm["trace.gen_ns_per_record"] = gen.nsPer()
	lm["trace.tape_bytes_per_record"] = float64(tapeBytes) / float64(gen.ops)

	var rp replay
	for i, t := range tapes {
		rp.replayTape(tr, te.root, t, e.config(ids[i].warm, ids[i].measure))
	}
	rp.metrics(lm)

	stmsDur := simDrivers(ctx, &te, ids, tapes, want, rep, lm)
	if err := streamReplay(&te, tapes, lm); err != nil {
		return err
	}
	if o := traced.out; o.frames > 0 {
		lm["stream.resent_frame_ratio"] = float64(o.framesSent)/float64(o.frames) - 1
		lm["stream.reconnects"] = float64(o.reconnects)
	} else {
		lm["stream.resent_frame_ratio"], lm["stream.reconnects"] = 0, 0
	}
	if err := ckptReplay(ctx, &te, ids[0], tapes[0], stmsDur, want, rep, lm); err != nil {
		return err
	}

	lab := traced.out.lab
	if lab == nil {
		if lab, err = labReplay(ctx, w, &te, want, rep); err != nil {
			return err
		}
	}
	lm["lab.cell_wall_ms"] = median(durationsMS(tr.cellWalls))
	ts := lab.TapeStats()
	lm["lab.tape_hit_ratio"] = ratio(ts.Hits, ts.Hits+ts.Misses)

	remote, fl := traced.out.lab, traced.out.fleet
	if fl == nil {
		if remote, fl, err = distReplay(ctx, w, &te, want, rep); err != nil {
			return err
		}
	}
	rs := remote.RemoteStats()
	var hits, lookups uint64
	for _, s := range fl.stores {
		st := s.Stats()
		hits, lookups = hits+st.Hits, lookups+st.Hits+st.Misses
	}
	lm["dist.job_ms"] = median(tr.jobMS)
	lm["dist.rpc_overhead_ms"] = median(tr.rpcMS)
	lm["dist.ckpt_push_mb"] = float64(rs.CkptBytes) / (1 << 20)
	lm["dist.store_hit_ratio"] = ratio(hits, lookups)
	lm["dist.tape_fetches"] = float64(rs.TapeFetches)
	lm["dist.retries"] = float64(rs.Retries)
	rep.Notes = append(rep.Notes, fmt.Sprintf("lab cells timed: %d; dist jobs timed: %d (remote %d, local fallback %d)",
		len(tr.cellWalls), len(tr.jobMS), rs.RemoteCells, rs.LocalCells))
	tr.end(te.root)

	for _, m := range perLayer {
		v, ok := lm[m.name]
		if !ok {
			return fmt.Errorf("per-layer metric %s was not measured", m.name)
		}
		rep.set(m.name, v)
	}
	spans := tr.spans()
	rep.SelfS = map[string]float64{}
	for l, d := range selfTimes(spans) {
		rep.SelfS[l] = d.Seconds()
	}
	dir := filepath.Join(outDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", w.name, e.seed))
	rep.Notes = append(rep.Notes, fmt.Sprintf("%d spans written to %s", len(spans), path))
	return writeChrome(path, spans)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func durationsMS(ds []time.Duration) []float64 {
	var out []float64
	for _, d := range ds {
		out = append(out, float64(d.Microseconds())/1000)
	}
	return out
}

// simDrivers times every cell of the workload's tapes through the
// direct sim entry points — timed baseline, ideal and stms, functional
// baseline and stms — and a K=2 sampled stms run of the first tape. It
// returns the wall of the first tape's timed stms run.
func simDrivers(ctx context.Context, e *env, ids []tapeID, tapes []*trace.Tape, want map[string]string, rep *report, lm map[string]float64) time.Duration {
	type driver struct {
		mode string
		v    variant
		t    tally
		res  []*sim.Results
	}
	drivers := []*driver{
		{mode: "timed", v: baseline}, {mode: "timed", v: ideal}, {mode: "timed", v: stmsP},
		{mode: "functional", v: baseline}, {mode: "functional", v: stmsP},
	}
	var stmsDur time.Duration
	for i, t := range tapes {
		for _, d := range drivers {
			c := cellSpec{ids[i].workload, d.v, d.mode, ids[i].warm, ids[i].measure}
			sp := e.tr.begin("sim."+d.mode+" "+ids[i].workload+"/"+d.v.label, e.root)
			start := time.Now()
			dg, res, err := runDirect(ctx, e, c, t)
			if i == 0 && d.mode == "timed" && d.v == stmsP {
				stmsDur = time.Since(start)
			}
			d.t.add(start, ids[i].perCore()*cores)
			e.tr.end(sp)
			rep.checkKnown(op{c.id(), dg, err}, want)
			if err == nil {
				d.res = append(d.res, res)
			}
		}
	}
	for _, d := range drivers {
		lm[fmt.Sprintf("sim.%s_ns_per_record.%s", d.mode, d.v.label)] = d.t.nsPer()
	}

	c := cellSpec{ids[0].workload, stmsP, "sampled", ids[0].warm, ids[0].measure}
	sp := e.tr.begin("sim.sampled "+ids[0].workload, e.root)
	start := time.Now()
	dg, _, err := runDirect(ctx, e, c, tapes[0])
	sampled := time.Since(start)
	e.tr.end(sp)
	rep.checkKnown(op{c.id(), dg, err}, want)
	lm["sim.sampled_over_exact"] = sampled.Seconds() / stmsDur.Seconds()

	// Ratios from the Results the drivers produced: the cache hit ratios
	// of the baseline, the meta-data figures of stms.
	var recs, l1, l2 uint64
	for _, r := range drivers[0].res {
		recs, l1, l2 = recs+r.Records, l1+r.L1Hits, l2+r.L2Hits
	}
	lm["cache.l1_hit_ratio"] = ratio(l1, recs)
	lm["cache.l2_hit_ratio"] = ratio(l2, recs-l1)
	var meta, total, lookups, lookupHits, issued, used, evicted uint64
	for _, r := range drivers[2].res {
		a := &r.Traffic.Accesses
		meta += a[dram.IndexLookup] + a[dram.IndexUpdateRd] + a[dram.IndexUpdateWr] +
			a[dram.HistoryAppend] + a[dram.HistoryRead] + a[dram.EndMarkWrite]
		total += r.Traffic.TotalAccesses()
		lookups, lookupHits = lookups+r.Engine.Lookups, lookupHits+r.Engine.LookupHits
		issued, used = issued+r.Engine.Issued, used+r.Engine.FullHits+r.Engine.PartialHits
		evicted += r.Engine.Evicted
	}
	lm["dram.meta_traffic_share"] = ratio(meta, total)
	lm["core.lookup_hit_ratio"] = ratio(lookupHits, lookups)
	lm["prefetch.accuracy"] = ratio(used, issued)
	lm["prefetch.evicted_unused_ratio"] = ratio(evicted, issued)
	return stmsDur
}

// wireBytesPerRecord bounds the encoded size of a record: a frame's
// columns take 21 bytes a record (block 8; pc, instructions and work 4
// each; dependence 1), and frame headers add well under one more.
const wireBytesPerRecord = 22

// streamReplay encodes each tape with Outlet.WriteAll into a buffer
// sized up front, so the encode is not timed growing it, and decodes
// the bytes with a ReaderInlet drained by one consumer per core.
func streamReplay(e *env, tapes []*trace.Tape, lm map[string]float64) error {
	var enc, dec tally
	var wire, recs uint64
	for _, t := range tapes {
		n := t.PerCore() * uint64(t.Cores())
		var buf bytes.Buffer
		buf.Grow(int(n*wireBytesPerRecord) + 64<<10)
		out := stream.NewOutlet(stream.TapeSource(t), stream.Timeouts{})
		sp := e.tr.begin("stream.encode", e.root)
		start := time.Now()
		if err := out.WriteAll(&buf); err != nil {
			return fmt.Errorf("stream encode: %w", err)
		}
		enc.add(start, out.FramesSent())
		e.tr.end(sp)
		wire += uint64(buf.Len())
		recs += n

		sp = e.tr.begin("stream.decode", e.root)
		start = time.Now()
		frames, err := drainInlet(&buf)
		if err != nil {
			return fmt.Errorf("stream decode: %w", err)
		}
		dec.add(start, frames)
		e.tr.end(sp)
	}
	lm["stream.encode_ns_per_frame"] = enc.nsPer()
	lm["stream.decode_ns_per_frame"] = dec.nsPer()
	lm["stream.wire_bytes_per_record"] = float64(wire) / float64(recs)
	return nil
}

func drainInlet(buf *bytes.Buffer) (uint64, error) {
	in, err := stream.ReaderInlet(buf, stream.InletConfig{})
	if err != nil {
		return 0, err
	}
	defer in.Close()
	var wg sync.WaitGroup
	counts := make([]uint64, len(in.Sources()))
	for i, src := range in.Sources() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := src.NextFrame(); f != nil; f = src.NextFrame() {
				counts[i]++
			}
		}()
	}
	wg.Wait()
	var n uint64
	for _, c := range counts {
		n += c
	}
	return n, in.Err()
}

// ckptReplay runs the first tape's timed stms cell with checkpoints at
// the workload's cadence, resumes the last checkpoint, and times Seal
// and Open over it.
func ckptReplay(ctx context.Context, e *env, id tapeID, t *trace.Tape, plain time.Duration, want map[string]string, rep *report, lm map[string]float64) error {
	c := cellSpec{id.workload, stmsP, "timed", id.warm, id.measure}
	var last []byte
	var sizes []float64
	sink := func(data []byte) error {
		sp := e.tr.begin("ckpt.callback", e.root)
		sizes = append(sizes, float64(len(data)))
		last = append(last[:0], data...)
		e.tr.end(sp)
		return nil
	}
	sp := e.tr.begin("sim.timed checkpointing "+id.workload+"/stms", e.root)
	start := time.Now()
	res, err := sim.RunTimedTapeCtx(ctx, e.config(id.warm, id.measure), t, c.v.ps, nil,
		sim.WithCheckpointFunc(e.size.ckptEvery, sink))
	with := time.Since(start)
	e.tr.end(sp)
	rep.checkKnown(op{c.id(), digestOf(&res), err}, want)
	lm["ckpt.write_overhead_pct"] = 100 * (with.Seconds() - plain.Seconds()) / plain.Seconds()
	lm["ckpt.snapshot_bytes"] = median(sizes)
	if err != nil || last == nil {
		return fmt.Errorf("checkpointing run wrote no checkpoint (err %v)", err)
	}

	sp = e.tr.begin("ckpt.resume", e.root)
	start = time.Now()
	resumed, rerr := sim.ResumeTape(ctx, last, t, nil)
	lm["ckpt.resume_ms"] = float64(time.Since(start).Microseconds()) / 1000
	e.tr.end(sp)
	rid := c.id() + " resumed"
	rep.check([]op{{rid, digestOf(&resumed), rerr}}, map[string]string{rid: digestOf(&res)})

	payload, err := ckpt.Open(last)
	if err != nil {
		return fmt.Errorf("opening the last checkpoint: %w", err)
	}
	mib := float64(len(payload)) / (1 << 20)
	lm["ckpt.seal_ns_per_mb"] = repeatNS(func() { ckpt.Seal(payload) }) / mib
	lm["ckpt.open_ns_per_mb"] = repeatNS(func() { ckpt.Open(last) }) / mib
	return nil
}

// repeatNS runs fn until 100 ms have passed (at least 3 times) and
// returns its median time in nanoseconds.
func repeatNS(fn func()) float64 {
	var ns []float64
	start := time.Now()
	for len(ns) < 3 || time.Since(start) < 100*time.Millisecond {
		t := time.Now()
		fn()
		ns = append(ns, float64(time.Since(t).Nanoseconds()))
	}
	return median(ns)
}

// labReplay runs the workload's first cell through a fresh Lab, for the
// workloads whose measured path does not use one.
func labReplay(ctx context.Context, w *workload, e *env, want map[string]string, rep *report) (*stms.Lab, error) {
	c := w.cells(e.size)[0]
	opts := []stms.Option{
		stms.WithScale(scale), stms.WithSeed(e.seed), stms.WithWindows(c.warm, c.measure),
		stms.WithParallelism(e.par), stms.WithProgress(e.tr.labProgress(e.root)),
	}
	var popts []stms.PlanOption
	switch c.mode {
	case "sampled":
		opts = append(opts, stms.WithSampling(stms.Sampling{Windows: sampleWindows}))
	case "functional":
		popts = append(popts, stms.InMode(stms.Functional))
	}
	lab, err := stms.New(opts...)
	if err != nil {
		return nil, err
	}
	ps, labels := labelsOf([]variant{c.v})
	m, err := lab.Run(ctx, lab.Plan([]string{c.workload}, ps, append(popts, labels)...))
	if m == nil {
		return nil, err
	}
	for _, cr := range m.Cells {
		var v any = cr.Res
		if cr.Sampled != nil {
			v = cr.Sampled
		}
		rep.checkKnown(op{c.id(), digestOf(v), cr.Err}, want)
	}
	return lab, nil
}

// distReplay sends the workload's first trace identity under baseline
// and stms to two fresh workers, for the workloads whose measured path
// does not use them. Workers run exact cells only, so a sampled
// workload's cells go as timed ones.
func distReplay(ctx context.Context, w *workload, e *env, want map[string]string, rep *report) (*stms.Lab, *fleet, error) {
	c := w.cells(e.size)[0]
	mode, m := "timed", stms.Timed
	if c.mode == "functional" {
		mode, m = "functional", stms.Functional
	}
	fl, err := startFleet(e, e.size.ckptEvery)
	if err != nil {
		return nil, nil, err
	}
	defer fl.stop()
	// One job in flight, as in remote-ckpt.
	lab, err := stms.New(stms.WithScale(scale), stms.WithSeed(e.seed), stms.WithWindows(c.warm, c.measure),
		stms.WithParallelism(1), stms.WithWorkers(fl.urls), stms.WithWorkerTransport(e.tr.transport(e.root)))
	if err != nil {
		return nil, nil, err
	}
	vs := []variant{baseline, stmsP}
	ps, labels := labelsOf(vs)
	mat, err := lab.Run(ctx, lab.Plan([]string{c.workload}, ps, labels, stms.InMode(m)))
	if mat == nil {
		return nil, nil, err
	}
	for _, cr := range mat.Cells {
		id := cellSpec{c.workload, variant{label: cr.Cell.Label}, mode, c.warm, c.measure}.id()
		rep.checkKnown(op{id, digestOf(cr.Res), cr.Err}, want)
	}
	rep.check(remoteOps("dist replay", lab.RemoteStats(), len(mat.Cells)), want)
	return lab, fl, nil
}
