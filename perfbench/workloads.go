package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"stms"
	"stms/internal/dist"
	"stms/internal/sim"
	"stms/internal/stream"
	"stms/internal/trace"
)

// Every workload runs the 4-core default system at scale 0.125.
const (
	scale = 0.125
	cores = 4

	oltp          = "oltp-db2"
	sampleWindows = 2 // fixed, so sampled results do not depend on the host
)

// sizing holds the record budgets of one benchmark size: the full size
// the benchmark reports, or the tiny one its self-check runs.
type sizing struct {
	warm, measure             uint64 // per core, for every workload but stream-baseline
	streamWarm, streamMeasure uint64 // per core, stream-baseline
	ckptEvery                 uint64 // records between worker checkpoints
	fig8                      []string
	full                      bool // the size expected.json was recorded at
}

func fullSize() sizing {
	return sizing{
		warm: 80_000, measure: 120_000,
		streamWarm: 400_000, streamMeasure: 600_000,
		ckptEvery: 100_000,
		fig8:      trace.FigureEight(),
		full:      true,
	}
}

func tinySize() sizing {
	return sizing{
		warm: 2_000, measure: 4_000,
		streamWarm: 4_000, streamMeasure: 6_000,
		ckptEvery: 5_000,
		fig8:      trace.FigureEight()[:2],
	}
}

type variant struct {
	label string
	ps    stms.PrefSpec
}

var (
	baseline = variant{"baseline", stms.PrefSpec{Kind: stms.None}}
	ideal    = variant{"ideal", stms.PrefSpec{Kind: stms.Ideal}}
	stmsP    = variant{"stms", stms.PrefSpec{Kind: stms.STMS, SampleProb: 0.125}}
)

// cellSpec identifies one simulated result the benchmark checks: a
// trace workload under a variant, in a driver mode, at a record budget.
type cellSpec struct {
	workload string
	v        variant
	mode     string // "timed", "functional" or "sampled"
	warm     uint64
	measure  uint64
}

func (c cellSpec) id() string {
	return fmt.Sprintf("%s/%s/%s/%d", c.mode, c.workload, c.v.label, c.warm+c.measure)
}

func (c cellSpec) tape() tapeID { return tapeID{c.workload, c.warm, c.measure} }

// tapeID is one trace identity a workload replays.
type tapeID struct {
	workload      string
	warm, measure uint64
}

func (t tapeID) perCore() uint64 { return t.warm + t.measure }

// env is what one run of a workload is built from.
type env struct {
	seed uint64
	size sizing
	par  int     // concurrent simulations: nproc
	tr   *tracer // nil when untraced
	root int64   // span the run's spans hang under
}

func (e *env) config(warm, measure uint64) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Scale, cfg.Seed = scale, e.seed
	cfg.WarmRecords, cfg.MeasureRecords = warm, measure
	return cfg
}

func (e *env) build(t tapeID) (*trace.Tape, error) {
	spec, err := trace.ByName(t.workload)
	if err != nil {
		return nil, err
	}
	return trace.NewTape(spec.Scaled(scale), e.seed, cores, t.perCore()), nil
}

// op is one checked operation: a matrix cell, remote job, streamed run
// or sampled run, with the digest of what it produced.
type op struct {
	id     string
	digest string
	err    error
}

// outcome is what one measured iteration produced.
type outcome struct {
	records uint64
	ops     []op
	results map[string]*sim.Results // by cell id

	lab   *stms.Lab // the iteration's session, when it used one
	fleet *fleet    // the iteration's workers, when it used them

	frames, framesSent, reconnects uint64 // stream-baseline only
}

func newOutcome() *outcome { return &outcome{results: map[string]*sim.Results{}} }

func (o *outcome) add(p op, res *sim.Results) {
	if p.err == nil && res == nil {
		p.err = errors.New("no result")
	}
	o.ops = append(o.ops, p)
	if p.err == nil {
		o.results[p.id] = res
	}
}

// instance is a workload set up and ready to measure once. finish
// completes the outcome's checks after the clock has stopped.
type instance interface {
	measure(ctx context.Context) (*outcome, error)
	finish(o *outcome)
	close()
}

type workload struct {
	name, why string
	// cells lists every result a run checks, in the order its ops run.
	cells func(s sizing) []cellSpec
	setup func(ctx context.Context, e *env) (instance, error)
	// setupReps is how many times an iteration sets the workload up,
	// keeping the last instance, so that the median of a set-up that
	// takes microseconds is steady. Zero means once.
	setupReps int
}

func (w *workload) tapes(s sizing) []tapeID { return uniqueTapes(w.cells(s)) }

var workloads = []*workload{
	{
		name:      "fig8-timed",
		why:       "The paper's headline matrix, timed: the timing layers (cpu, event, dram) and the meta-data layers (prefetch, core) do most of their work here.",
		cells:     func(s sizing) []cellSpec { return matrixCells(s, "timed", baseline, ideal, stmsP) },
		setup:     setupFig8,
		setupReps: 1000,
	},
	{
		name: "sampled-oltp",
		why:  "oltp-db2 x stms as a K=2 sampled run: core's meta-data-only warm replay writes the index with no DRAM traffic, and ckpt forks every window.",
		cells: func(s sizing) []cellSpec {
			return []cellSpec{{oltp, stmsP, "sampled", s.warm, s.measure}, {oltp, stmsP, "timed", s.warm, s.measure}}
		},
		setup: setupSampled,
	},
	{
		name: "stream-baseline",
		why:  "A pre-built oltp-db2 tape streamed over loopback STMSWIRE with two cuts into the functional baseline: frame encode and decode are on the critical path.",
		cells: func(s sizing) []cellSpec {
			return []cellSpec{{oltp, baseline, "functional", s.streamWarm, s.streamMeasure}}
		},
		setup: setupStream,
	},
	{
		name:  "remote-ckpt",
		why:   "The fig8 workloads x {baseline, stms} on two in-process checkpointing dist workers: the only load on job RPC, the tape store and checkpoint writes.",
		cells: func(s sizing) []cellSpec { return matrixCells(s, "timed", baseline, stmsP) },
		setup: setupRemote,
	},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func matrixCells(s sizing, mode string, vs ...variant) []cellSpec {
	var cells []cellSpec
	for _, wl := range s.fig8 {
		for _, v := range vs {
			cells = append(cells, cellSpec{wl, v, mode, s.warm, s.measure})
		}
	}
	return cells
}

func labelsOf(vs []variant) ([]stms.PrefSpec, stms.PlanOption) {
	var ps []stms.PrefSpec
	var labels []string
	for _, v := range vs {
		ps = append(ps, v.ps)
		labels = append(labels, v.label)
	}
	return ps, stms.WithLabels(labels...)
}

// labRun is a fresh Lab with its plan: fig8-timed and remote-ckpt.
type labRun struct {
	lab   *stms.Lab
	plan  *stms.RunPlan
	s     sizing
	fleet *fleet
}

func newLabRun(e *env, vs []variant, f *fleet) (*labRun, error) {
	par := e.par
	if f != nil {
		// One client with one job in flight. With more, the wall is set
		// by how rendezvous hashing happens to split the rows between
		// the two workers, which changes with every worker address.
		par = 1
	}
	opts := []stms.Option{
		stms.WithScale(scale), stms.WithSeed(e.seed),
		stms.WithWindows(e.size.warm, e.size.measure),
		stms.WithParallelism(par),
	}
	if f != nil {
		opts = append(opts, stms.WithWorkers(f.urls))
		if e.tr != nil {
			opts = append(opts, stms.WithWorkerTransport(e.tr.transport(e.root)))
		}
	}
	if e.tr != nil {
		opts = append(opts, stms.WithProgress(e.tr.labProgress(e.root)))
	}
	lab, err := stms.New(opts...)
	if err != nil {
		return nil, err
	}
	ps, labels := labelsOf(vs)
	return &labRun{lab: lab, plan: lab.Plan(e.size.fig8, ps, labels), s: e.size, fleet: f}, nil
}

func (r *labRun) measure(ctx context.Context) (*outcome, error) {
	m, err := r.lab.Run(ctx, r.plan)
	if m == nil {
		return nil, err
	}
	o := newOutcome()
	o.lab, o.fleet = r.lab, r.fleet
	for _, c := range m.Cells {
		id := cellSpec{c.Cell.Workload, variant{label: c.Cell.Label}, "timed", r.s.warm, r.s.measure}.id()
		o.add(op{id, digestOf(c.Res), c.Err}, c.Res)
		o.records += (r.s.warm + r.s.measure) * cores
	}
	return o, nil
}

// finish checks that a fleet-backed run really ran remotely. A cell the
// Lab ran in-process after its remote attempts failed gives the same
// Results, so only the dispatch accounting shows it.
func (r *labRun) finish(o *outcome) {
	if r.fleet != nil {
		rows, cols := r.plan.Size()
		o.ops = append(o.ops, remoteOps("remote-ckpt", r.lab.RemoteStats(), rows*cols)...)
	}
}

// remoteOps turns a coordinator's dispatch accounting into failed ops:
// each retried attempt and each cell that fell back to in-process
// simulation is a remote job that failed, and every cell must have run
// on a worker that wrote checkpoints.
func remoteOps(name string, rs stms.RemoteStats, cells int) []op {
	var ops []op
	fail := func(format string, a ...any) {
		ops = append(ops, op{id: fmt.Sprintf("%s remote job %d", name, len(ops)+1), err: fmt.Errorf(format, a...)})
	}
	for i := uint64(0); i < rs.Retries; i++ {
		fail("an attempt failed and was retried")
	}
	for i := uint64(0); i < rs.LocalCells; i++ {
		fail("every attempt failed; the cell ran in-process")
	}
	if rs.RemoteCells+rs.LocalCells != uint64(cells) {
		fail("%d cells ran on a worker and %d in-process, want %d on a worker", rs.RemoteCells, rs.LocalCells, cells)
	}
	if rs.CkptWrites == 0 {
		fail("the workers wrote no checkpoint")
	}
	return ops
}

func (r *labRun) close() {
	if r.fleet != nil {
		r.fleet.stop()
	}
}

// fig8-timed: set-up is only the Lab and its plan, because a user pays
// tape generation on every fresh run; the tapes are built inside
// Lab.Run and measured.
func setupFig8(ctx context.Context, e *env) (instance, error) {
	return newLabRun(e, []variant{baseline, ideal, stmsP}, nil)
}

// remote-ckpt: set-up starts two fresh workers, each with a fresh
// in-memory store. Reused workers would resume from their stored
// checkpoints instead of simulating.
func setupRemote(ctx context.Context, e *env) (instance, error) {
	f, err := startFleet(e, e.size.ckptEvery)
	if err != nil {
		return nil, err
	}
	r, err := newLabRun(e, []variant{baseline, stmsP}, f)
	if err != nil {
		f.stop()
		return nil, err
	}
	return r, nil
}

// fleet is two in-process dist workers serving over loopback, peered
// with each other, one job at a time each.
type fleet struct {
	urls    []string
	stores  []*dist.Store
	servers []*http.Server
	wg      sync.WaitGroup
}

func startFleet(e *env, every uint64) (*fleet, error) {
	f := &fleet{}
	var lis []net.Listener
	for i := 0; i < 2; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lis {
				l.Close()
			}
			return nil, err
		}
		lis = append(lis, l)
		f.urls = append(f.urls, "http://"+l.Addr().String())
	}
	for i, l := range lis {
		store := dist.NewStore(256<<20, "")
		srv := dist.NewServer(dist.ServerConfig{
			Name:            fmt.Sprintf("worker%d", i),
			Store:           store,
			Peers:           []string{f.urls[1-i]},
			MaxJobs:         1,
			CheckpointEvery: every,
		})
		hs := &http.Server{Handler: e.tr.handler(srv, e.root), ReadHeaderTimeout: 10 * time.Second}
		f.stores = append(f.stores, store)
		f.servers = append(f.servers, hs)
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			hs.Serve(l) // returns http.ErrServerClosed once stop closes it
		}()
	}
	return f, nil
}

func (f *fleet) stop() {
	for _, hs := range f.servers {
		hs.Close()
	}
	f.wg.Wait()
}

// sampled-oltp: set-up builds the input tape.
type sampledRun struct {
	e    *env
	tape *trace.Tape
	cell cellSpec
}

func setupSampled(ctx context.Context, e *env) (instance, error) {
	cell := cellSpec{oltp, stmsP, "sampled", e.size.warm, e.size.measure}
	t, err := e.build(cell.tape())
	if err != nil {
		return nil, err
	}
	return &sampledRun{e: e, tape: t, cell: cell}, nil
}

func (r *sampledRun) measure(ctx context.Context) (*outcome, error) {
	sp := r.e.tr.begin("sim.sampled "+r.cell.workload, r.e.root)
	d, res, err := runDirect(ctx, r.e, r.cell, r.tape)
	r.e.tr.end(sp)
	o := newOutcome()
	o.records = r.cell.tape().perCore() * cores
	o.add(op{r.cell.id(), d, err}, res)
	return o, nil
}

func (r *sampledRun) finish(*outcome) {}

func (r *sampledRun) close() {}

// stream-baseline: set-up builds the tape and starts a fresh outlet on
// a loopback listener; the measured part dials it and simulates.
type streamRun struct {
	e      *env
	cell   cellSpec
	out    *stream.Outlet
	lis    net.Listener
	cancel context.CancelFunc
	served chan error

	finished bool // measure has collected the outlet's result
}

func setupStream(ctx context.Context, e *env) (instance, error) {
	cell := cellSpec{oltp, baseline, "functional", e.size.streamWarm, e.size.streamMeasure}
	t, err := e.build(cell.tape())
	if err != nil {
		return nil, err
	}
	out := stream.NewOutlet(stream.TapeSource(t), stream.Timeouts{})
	frames := streamFrames(cell.tape().perCore())
	out.InjectCuts(frames/3, 2*frames/3)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if e.tr != nil {
		lis = &tracedListener{Listener: lis, tr: e.tr, parent: e.root}
	}
	sctx, cancel := context.WithCancel(ctx)
	r := &streamRun{e: e, cell: cell, out: out, lis: lis, cancel: cancel, served: make(chan error, 1)}
	go func() { r.served <- out.Serve(sctx, lis) }()
	return r, nil
}

// streamFrames is the number of frames a tape of perCore records per
// core is sent as.
func streamFrames(perCore uint64) uint64 {
	return cores * ((perCore + trace.FrameCap - 1) / trace.FrameCap)
}

func (r *streamRun) measure(ctx context.Context) (*outcome, error) {
	in, err := stream.DialInlet(r.lis.Addr().String(), stream.InletConfig{})
	if err != nil {
		return nil, err
	}
	h := in.Hello()
	srcs := in.Sources()
	held := make([]trace.FrameSource, len(srcs))
	for i, s := range srcs {
		held[i] = heldSource{s}
	}
	run := sim.SourceRun{Spec: h.Spec, Marks: h.Marks, Sources: held, PerCore: h.PerCore}
	res, err := sim.RunFunctionalSourcesCtx(ctx, r.e.config(r.cell.warm, r.cell.measure), run, r.cell.v.ps, nil)
	if err == nil {
		err = readToEnd(in, srcs)
	}
	in.Close()
	o := newOutcome()
	o.records = r.cell.tape().perCore() * cores
	o.add(op{r.cell.id(), digestOf(&res), err}, &res)
	o.frames = streamFrames(r.cell.tape().perCore())
	o.reconnects = in.Reconnects()
	return o, nil
}

// heldSource leaves the stream open when the driver closes it, so that
// the consumer can read it to its end message before closing the inlet.
type heldSource struct{ trace.FrameSource }

func (heldSource) Close() {}

// endGrace bounds how long the consumer waits for the end message after
// the driver has taken its budget.
const endGrace = 5 * time.Second

// readToEnd reads every core's source until the stream's end message and
// reports the inlet's terminal error. Reading on recycles the frames the
// driver still holds, which grants the outlet the credit it needs to send
// its end message: a consumer that closes without it leaves a
// stream.Outlet waiting for a resume that never comes.
func readToEnd(in *stream.Inlet, srcs []trace.FrameSource) error {
	var wg sync.WaitGroup
	for _, s := range srcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s.NextFrame() != nil {
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(endGrace):
		in.Close()
		<-done
		return fmt.Errorf("stream: no end message %v after the run", endGrace)
	}
	if err := in.Err(); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	return nil
}

// outletGrace is how long the outlet gets to end after the consumer has
// read the stream to its end message and closed. A streamed run whose
// producer does not end within it fails.
const outletGrace = time.Second

// finish waits, off the clock, for the outlet to end, and fails the
// streamed run if it does not end cleanly.
func (r *streamRun) finish(o *outcome) {
	r.finished = true
	var err error
	select {
	case serr := <-r.served:
		if serr != nil {
			err = fmt.Errorf("stream outlet: %w", serr)
		}
	case <-time.After(outletGrace):
		r.cancel()
		<-r.served
		err = fmt.Errorf("stream outlet: still waiting %v after the stream was delivered; stopped", outletGrace)
	}
	o.framesSent = r.out.FramesSent()
	if p := &o.ops[0]; err != nil && p.err == nil {
		p.err = err
		delete(o.results, p.id)
	}
}

func (r *streamRun) close() {
	r.cancel()
	r.lis.Close()
	if !r.finished {
		<-r.served
	}
}
