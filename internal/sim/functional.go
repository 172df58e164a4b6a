package sim

import (
	"context"
	"fmt"

	"stms/internal/cache"
	"stms/internal/ckpt"
	"stms/internal/dram"
	"stms/internal/event"
	"stms/internal/prefetch"
	"stms/internal/prefetch/stride"
	"stms/internal/trace"
)

// functional is the fast zero-latency driver: identical cache and
// prefetcher state machines as the timed system, but memory responds
// instantly and time is the record counter. Used for idealized meta-data
// capacity sweeps (Figs. 1 left, 5, 6), where coverage is by definition
// independent of timing.
type functional struct {
	cfg   Config
	spec  trace.Spec
	now   uint64
	l1    []*cache.Cache
	l2    *cache.Cache
	strid *stride.Prefetcher
	pref  built

	// warmRec is the traffic-free warming append when the temporal
	// backend offers one (see prefetch.WarmRecorder), nil otherwise;
	// resolved once at construction so metaStep pays no per-record
	// type assertion.
	warmRec func(core int, blk uint64)

	// strideIssue is the premade stride-candidate continuation (one
	// allocation per run instead of one per load).
	strideIssue func(cand uint64)

	dirtyThresh uint64

	cnt     counters
	cntSnap counters
	engSnap EngineCounts
}

// funcEnv satisfies prefetch.Env with synchronous, traffic-free responses
// (the literal "magic zero-latency" meta-data of §5.2).
type funcEnv struct{ s *functional }

func (e funcEnv) Now() uint64 { return e.s.now }

func (e funcEnv) MetaRead(class dram.Class, done func(uint64)) {
	if done != nil {
		done(e.s.now)
	}
}

func (e funcEnv) MetaReadH(class dram.Class, h event.Handler, kind uint8, a, b uint64) {
	h.Handle(e.s.now, kind, a, b)
}

func (e funcEnv) MetaWrite(dram.Class) {}

func (e funcEnv) Fetch(core int, blk uint64, done func(uint64)) {
	if done != nil {
		done(e.s.now)
	}
}

func (e funcEnv) FetchH(core int, blk uint64, h event.Handler, kind uint8, a, b uint64) {
	h.Handle(e.s.now, kind, a, b)
}

func (e funcEnv) OnChip(core int, blk uint64) bool {
	return e.s.l1[core].Probe(blk) || e.s.l2.Probe(blk)
}

// newFunctional constructs the zero-latency system (also used by the
// sampling scheduler's warming pass).
func newFunctional(cfg Config, scaled trace.Spec, ps PrefSpec) *functional {
	s := &functional{
		cfg:         cfg,
		spec:        scaled,
		dirtyThresh: dirtyThreshold(scaled.DirtyFrac),
	}
	s.l2 = cache.New(cache.Config{Name: "L2", SizeBytes: cfg.L2(), Assoc: cfg.L2Assoc})
	s.strid = stride.New(cfg.Stride)
	s.strideIssue = s.stridePrefetch
	s.pref = buildPrefetcher(funcEnv{s}, cfg, ps)
	if w, ok := s.pref.temporal.(prefetch.WarmRecorder); ok {
		s.warmRec = w.RecordWarm
	}
	for i := 0; i < cfg.Cores; i++ {
		s.l1 = append(s.l1, cache.New(cache.Config{Name: "L1", SizeBytes: cfg.L1(), Assoc: cfg.L1Assoc}))
	}
	return s
}

// runFunctional drives the zero-latency system over per-core frame
// sources, round-robin, one record per core per tick, closing the
// sources on every exit path; marks, when non-nil, request per-phase
// stat windows in the Results.
func runFunctional(ctx context.Context, cfg Config, scaled trace.Spec, srcs []trace.FrameSource, marks []trace.PhaseMark, ps PrefSpec, progress Progress, desc CheckpointDesc, opts []RunOption) (Results, error) {
	defer func() {
		for _, fs := range srcs {
			fs.Close()
		}
	}()
	if ctx == nil {
		ctx = context.Background() // nil = never cancelled
	}
	opt := gatherOpts(opts)
	s := newFunctional(cfg, scaled, ps)

	phases := newPhaseTracker(marks, cfg.Cores)
	snapNow := func() phaseSnap { return phaseSnap{cnt: s.cnt} }
	seen := make([]uint64, cfg.Cores)

	// Frame-at-a-time consumption: each core's records arrive in columnar
	// frames from a pipelined source (decode overlaps simulation), and the
	// round-robin interleave reads straight from the frame columns —
	// identical record order to the old per-record Next loop, without its
	// per-record interface dispatch.
	frames := make([]*trace.Frame, cfg.Cores)
	pos := make([]int, cfg.Cores)
	framesRead := make([]uint64, cfg.Cores)

	ls := &funcLoopState{
		seen: seen, framesRead: framesRead, pos: pos,
		frames: frames, srcs: srcs, phases: phases,
	}
	var start uint64
	if opt.active() {
		if err := ckptSupported(desc, s.pref, ps); err != nil {
			return Results{}, err
		}
	}
	if opt.resume != nil {
		dec, err := desc.resume(opt.resume)
		if err != nil {
			return Results{}, err
		}
		if err := s.restoreFunc(dec, ls); err != nil {
			return Results{}, err
		}
		start = ls.i
	}
	nextCkpt := ^uint64(0)
	if opt.every > 0 {
		nextCkpt = nextBoundary(start, opt.every)
	}
	ckptN := 0

	warmTotal := cfg.WarmRecords * uint64(cfg.Cores)
	total := warmTotal + cfg.MeasureRecords*uint64(cfg.Cores)
loop:
	for i := start; i < total; i++ {
		if i%pollEvery == 0 && i > 0 {
			if progress != nil {
				progress(i, total)
			}
			if ctx.Err() != nil {
				return Results{}, ctx.Err()
			}
			if opt.stopCh != nil {
				select {
				case <-opt.stopCh:
					ls.i = i
					d := desc
					d.Records = i
					if err := writeCheckpoint(&opt, d, func(enc *ckpt.Encoder) error { return s.snapshotFunc(enc, ls) }); err != nil {
						return Results{}, err
					}
					return Results{}, ErrCheckpointed
				default:
				}
			}
		}
		if i == nextCkpt {
			// Record boundary: the previous record is fully processed,
			// the warm-window snapshot for this index has not run yet —
			// the resumed loop re-enters exactly here.
			ls.i = i
			d := desc
			d.Records = i
			if err := writeCheckpoint(&opt, d, func(enc *ckpt.Encoder) error { return s.snapshotFunc(enc, ls) }); err != nil {
				return Results{}, err
			}
			ckptN++
			nextCkpt = nextBoundary(i, opt.every)
			if opt.haltAfter > 0 && ckptN >= opt.haltAfter {
				return Results{}, ErrCheckpointed
			}
		}
		if i == warmTotal {
			s.cntSnap = s.cnt
			s.engSnap = engineCounts(s.pref.temporal.Stats())
		}
		core := int(i % uint64(cfg.Cores))
		f := frames[core]
		k := pos[core]
		if f == nil || k == f.Len() {
			if f = srcs[core].NextFrame(); f == nil {
				break loop
			}
			frames[core] = f
			framesRead[core]++
			k = 0
		}
		pos[core] = k + 1
		s.now = i
		s.step(core, f.PC[k], f.Block[k])
		if phases != nil {
			seen[core]++
			phases.note(core, seen[core], snapNow)
		}
	}
	if eng := s.pref.engine; eng != nil {
		eng.Flush()
	}
	// A source that ran dry because its producer failed (truncated tape,
	// dropped stream, dead generator) must fail the run, not pass off the
	// records it did deliver as a complete result.
	for _, src := range srcs {
		if err := src.Err(); err != nil {
			return Results{}, fmt.Errorf("sim: trace source failed mid-run: %w", err)
		}
	}

	w := s.cnt.sub(s.cntSnap)
	r := Results{
		Workload:       scaled.Name,
		Variant:        ps.Kind.String(),
		Records:        w.Loads,
		L1Hits:         w.L1Hits,
		L2Hits:         w.L2Hits,
		CoveredFull:    w.PBFull,
		CoveredPartial: w.PBPartial,
		Uncovered:      w.L2DemandMisses,
		Engine:         engineCounts(s.pref.temporal.Stats()).Sub(s.engSnap),
	}
	for _, src := range srcs {
		r.Frames.Add(src.Stats())
	}
	if eng := s.pref.engine; eng != nil {
		r.StreamLens = &eng.Stats().StreamLens
	}
	if phases != nil {
		r.Phases = phases.windows(snapNow())
	}
	return r, nil
}

// step processes one reference through the hierarchy.
func (s *functional) step(core int, pc uint32, blk uint64) {
	s.cnt.Loads++
	if s.l1[core].Access(blk, false) {
		s.cnt.L1Hits++
		return
	}
	// Stride trains on the L1-miss stream before the prefetch-buffer
	// probe, exactly as in the timed driver, so the base system behaves
	// identically across prefetcher variants.
	s.strid.Observe(pc, blk, s.strideIssue)
	// L2 hit takes precedence over a prefetch-buffer copy, exactly as in
	// the timed driver: covered misses are blocks that would have missed.
	if s.l2.Access(blk, false) {
		s.cnt.L2Hits++
		s.l1[core].Fill(blk, false)
		return
	}
	res := s.pref.temporal.Probe(core, blk, nil, 0, 0, 0)
	if res.State == prefetch.ProbeReady {
		s.cnt.PBFull++
		s.pref.temporal.Record(core, blk, true)
		s.fill(core, blk)
		return
	}
	// Synchronous fetches make ProbeInFlight impossible here; treat it
	// as covered if it ever appears.
	if res.State == prefetch.ProbeInFlight {
		s.cnt.PBPartial++
		s.pref.temporal.Record(core, blk, true)
		s.fill(core, blk)
		return
	}
	s.cnt.L2DemandMisses++
	s.pref.temporal.TriggerMiss(core, blk)
	s.pref.temporal.Record(core, blk, false)
	s.fill(core, blk)
}

// metaStep replays one reference through the L2 and the temporal
// backend's history/index only — no L1s, no stride, no prefetch-buffer
// streaming. The sampling scheduler warms the deep prefix of a window
// with it: off-chip meta-data (history buffer, index table) accumulates
// over the whole run and never saturates, so it needs the full prefix,
// while the caches, stride table and prefetch buffer reach steady state
// within a short recent horizon that runs at full fidelity (step).
func (s *functional) metaStep(core int, blk uint64) {
	if s.l2.Access(blk, false) {
		return
	}
	if s.warmRec != nil {
		s.warmRec(core, blk)
	} else {
		s.pref.temporal.Record(core, blk, false)
	}
	s.l2.Fill(blk, blockDirty(blk, s.dirtyThresh))
}

// stridePrefetch fills a stride candidate directly (zero-latency memory).
func (s *functional) stridePrefetch(cand uint64) {
	if !s.l2.Probe(cand) {
		s.cnt.StrideIssued++
		s.l2.Fill(cand, false)
	}
}

func (s *functional) fill(core int, blk uint64) {
	s.l2.Fill(blk, blockDirty(blk, s.dirtyThresh))
	s.l1[core].Fill(blk, false)
}
