package sim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"stms/internal/ckpt"
	"stms/internal/core"
	"stms/internal/event"
	"stms/internal/trace"
)

// Crash-resumable simulation. A checkpoint is a ckpt.Seal'd container
// holding a JSON run descriptor (enough to rebuild the system and its
// trace sources from scratch) followed by binary Snapshot sections for
// every stateful component. Snapshots are pure observation: a run that
// writes checkpoints produces bit-identical Results to one that does
// not, and a run resumed from any checkpoint produces bit-identical
// Results to the uninterrupted run.
//
// Checkpointable configurations are the None/Ideal/STMS variants (the
// default bucket-LRU index organization) over library-generated specs,
// scenarios, or tapes. The comparator variants (TSE/EBCP/ULMT/Markov),
// the §5.4 index-organization ablations, and externally supplied
// generators keep closure-based in-flight state that cannot be
// serialized; requesting checkpoints there fails fast with an error.

// ErrCheckpointed is returned by a run that was asked to halt after
// writing a checkpoint (WithCheckpointHalt, WithCheckpointSignal). The
// checkpoint on disk resumes the run exactly where it stopped.
var ErrCheckpointed = errors.New("sim: run halted after writing a checkpoint")

// RunOption configures checkpointing on Run and RunSampled.
type RunOption func(*runOpts)

type runOpts struct {
	every       uint64
	path        string
	sink        func(data []byte) error
	haltAfter   int
	stopCh      <-chan struct{}
	resume      []byte
	warm        *ckpt.Snapshot
	windowClock bool
}

func (o *runOpts) active() bool {
	return o.every > 0 || o.stopCh != nil
}

// WithCheckpointEvery writes a checkpoint to path (atomically: temp +
// fsync + rename) every `records` trace records, measured across all
// cores. records == 0 sets only the destination path, for runs that
// checkpoint on signal alone.
func WithCheckpointEvery(records uint64, path string) RunOption {
	return func(o *runOpts) { o.every, o.path = records, path }
}

// WithCheckpointFunc delivers each checkpoint (the sealed container
// bytes, identical to the file contents) to fn instead of — or in
// addition to — a file. A non-nil error from fn aborts the run.
func WithCheckpointFunc(records uint64, fn func(data []byte) error) RunOption {
	return func(o *runOpts) {
		if records > 0 {
			o.every = records
		}
		o.sink = fn
	}
}

// WithCheckpointHalt stops the run with ErrCheckpointed after the n-th
// checkpoint it writes. This is the deterministic stand-in for a crash:
// the run dies at an exact checkpoint boundary, so a resumed run can be
// compared bit-for-bit against an uninterrupted one.
func WithCheckpointHalt(n int) RunOption {
	return func(o *runOpts) { o.haltAfter = n }
}

// WithCheckpointSignal requests a final checkpoint, then halt with
// ErrCheckpointed, as soon as ch is closed (or sent to). Used for
// graceful worker shutdown: the in-progress job flushes a resumable
// checkpoint before the process exits.
func WithCheckpointSignal(ch <-chan struct{}) RunOption {
	return func(o *runOpts) { o.stopCh = ch }
}

// WithResume restores the run from a sealed checkpoint (the bytes of a
// checkpoint file) before the first event fires. The run's mode,
// configuration, complete prefetcher spec and trace identity must match
// the ones recorded in the checkpoint; a mismatch is an error.
func WithResume(data []byte) RunOption {
	return func(o *runOpts) { o.resume = data }
}

// withWarmState injects functionally warmed state (a "sim.warm"
// snapshot of caches, stride tables and temporal prefetcher) into a
// freshly constructed timed system before its cores start. Internal to
// the sampling scheduler; ignored on resumed runs, whose checkpoint
// restores the full state.
func withWarmState(snap *ckpt.Snapshot) RunOption {
	return func(o *runOpts) { o.warm = snap }
}

// withWindowClock ends the measured interval at the last instruction
// commit (max core FinishTime) instead of the memory-channel drain. A
// full run pays the end-of-run drain tail once, so it belongs in the
// exact numbers; a K-window sampled run would pay it K times, which
// inflates cycles-per-instruction in every window. Internal to the
// sampling scheduler.
func withWindowClock() RunOption {
	return func(o *runOpts) { o.windowClock = true }
}

func gatherOpts(opts []RunOption) runOpts {
	var o runOpts
	for _, f := range opts {
		f(&o)
	}
	return o
}

// halts reports whether the n-th checkpoint written is the one
// WithCheckpointHalt stops the run after.
func (o *runOpts) halts(n int) bool {
	return o.haltAfter > 0 && n >= o.haltAfter
}

// cadence is the one checkpoint trigger policy both drivers follow: a
// checkpoint at the first safe site at or past each multiple of
// WithCheckpointEvery's records, a halt after the WithCheckpointHalt-th,
// and a final checkpoint plus halt once WithCheckpointSignal fires. A
// driver compares its record count against next (a single integer
// compare), calls poll at its polling stride, and fire when the count
// reaches next.
type cadence struct {
	o        *runOpts
	next     uint64 // record count of the next checkpoint; ^0 = none due
	n        int    // checkpoints written
	stopping bool
}

// cadence starts the policy at a run's first record, start.
func (o *runOpts) cadence(start uint64) cadence {
	c := cadence{o: o, next: ^uint64(0)}
	if o.every > 0 {
		c.next = nextBoundary(start, o.every)
	}
	return c
}

// poll pulls the next checkpoint forward to recs once the stop signal
// has fired.
func (c *cadence) poll(recs uint64) {
	if c.o.stopCh == nil || c.stopping {
		return
	}
	select {
	case <-c.o.stopCh:
		c.stopping, c.next = true, recs
	default:
	}
}

// fire writes the checkpoint due at recs. It returns ErrCheckpointed
// when the run must halt after it, and the write's error if it failed.
func (c *cadence) fire(recs uint64, write func(recs uint64) error) error {
	if err := write(recs); err != nil {
		return err
	}
	c.n++
	switch {
	case c.stopping || c.o.halts(c.n):
		return ErrCheckpointed
	case c.o.every > 0:
		c.next = nextBoundary(recs, c.o.every)
	default:
		c.next = ^uint64(0)
	}
	return nil
}

// nextBoundary returns the first checkpoint boundary strictly above n.
func nextBoundary(n, every uint64) uint64 {
	return (n/every + 1) * every
}

// CheckpointDesc is the JSON run descriptor at the head of every
// checkpoint: the run's canonical document (the fields Mode, Config,
// Pref, exactly one of Spec, Scenario and Tape, and Sampling for a
// sampled run), its Key and the records processed at capture. Spec and
// Scenario runs are described in their portable form; a Tape run by its
// tape address, so rebuilding it needs that tape handed to RunSpec. Key
// is the run's identity (RunSpec.Key, or SampledKey for a sampled run's
// container): a checkpoint restores only into a run with the same key.
type CheckpointDesc struct {
	Key     string `json:"key"`
	Records uint64 `json:"records"` // records processed at capture
	runDoc
}

// Payload sections that open the two container kinds.
const (
	exactSection   = "sim.checkpoint" // descriptor + component snapshots
	sampledSection = "sim.sampled"    // descriptor + per-window slots
)

// PeekCheckpoint opens a sealed checkpoint — an exact run's or a
// sampled run's combined container — and returns its descriptor
// without restoring anything. A sampled container reports the sampled
// run's descriptor (Key is its SampledKey) with the records its
// windows have processed as Records, a figure that only grows as the
// run progresses.
func PeekCheckpoint(data []byte) (CheckpointDesc, error) {
	d, sampled, dec, err := openDesc(data)
	if err != nil || !sampled {
		return d, err
	}
	state, slots, err := readSlots(dec, d)
	if err != nil {
		return CheckpointDesc{}, err
	}
	plan := windowPlan(d.Config, *d.Sampling)
	for w, st := range state {
		switch st {
		case slotDone:
			d.Records += (plan[w].warm + plan[w].length) * uint64(d.Config.Cores)
		case slotPartial:
			if wd, _, _, err := openDesc(slots[w]); err == nil {
				d.Records += wd.Records
			}
		}
	}
	return d, nil
}

// openDesc opens a sealed checkpoint of either kind and reads its
// descriptor, leaving the decoder after it; sampled reports a sampled
// run's combined container.
func openDesc(data []byte) (d CheckpointDesc, sampled bool, dec *ckpt.Decoder, err error) {
	payload, err := ckpt.Open(data)
	if err != nil {
		return CheckpointDesc{}, false, nil, err
	}
	dec = ckpt.NewDecoder(payload)
	section := dec.String()
	j := dec.Bytes()
	switch {
	case dec.Err() != nil:
		return CheckpointDesc{}, false, nil, dec.Err()
	case section != exactSection && section != sampledSection:
		return CheckpointDesc{}, false, nil, fmt.Errorf("sim: not a checkpoint (section %q)", section)
	}
	if err := json.Unmarshal(j, &d); err != nil {
		return CheckpointDesc{}, false, nil, fmt.Errorf("sim: corrupt checkpoint descriptor: %w", err)
	}
	sampled = section == sampledSection
	if sampled && d.Sampling == nil {
		return CheckpointDesc{}, false, nil, fmt.Errorf("sim: sampled checkpoint descriptor records no sampling parameters")
	}
	return d, sampled, dec, nil
}

// writeCheckpoint assembles descriptor + component snapshots and
// delivers the sealed container.
func writeCheckpoint(o *runOpts, d CheckpointDesc, snap func(*ckpt.Encoder) error) error {
	j, err := json.Marshal(d)
	if err != nil {
		return fmt.Errorf("sim: encoding checkpoint descriptor: %w", err)
	}
	enc := ckpt.NewEncoder()
	enc.Section(exactSection)
	enc.Bytes(j)
	if err := snap(enc); err != nil {
		return err
	}
	return o.deliver(enc.Payload())
}

// deliver writes a checkpoint payload to the configured destinations:
// the file (atomically) and the sink (sealed).
func (o *runOpts) deliver(payload []byte) error {
	if o.path == "" && o.sink == nil {
		return fmt.Errorf("sim: checkpoint requested with no destination (path or func)")
	}
	if o.path != "" {
		if err := ckpt.WriteFile(o.path, payload); err != nil {
			return err
		}
	}
	if o.sink != nil {
		return o.sink(ckpt.Seal(payload))
	}
	return nil
}

// resume opens a WithResume container for the run want describes — a
// sampled run's combined container when sampled is set, an exact run's
// otherwise — refusing a checkpoint of any other run.
func (want CheckpointDesc) resume(data []byte, sampled bool) (*ckpt.Decoder, error) {
	d, isSampled, dec, err := openDesc(data)
	switch {
	case err != nil:
		return nil, err
	case isSampled != sampled:
		return nil, fmt.Errorf("sim: checkpoint container is sampled=%v, the run sampled=%v", isSampled, sampled)
	}
	return dec, want.check(d)
}

// RunSpec rebuilds the RunSpec the checkpoint belongs to; resume it by
// passing the checkpoint to Run (or RunSampled with *d.Sampling, for a
// sampled descriptor) with WithResume. tape is consulted only for
// tape-backed checkpoints, which record the tape's address but not its
// records: the caller supplies the tape (re-fetched by key in the
// distributed lab, rebuilt locally otherwise), and any other tape is
// refused. A descriptor whose document does not rebuild the run its Key
// names is refused too.
func (d CheckpointDesc) RunSpec(tape *trace.Tape) (RunSpec, error) {
	rs, err := d.runSpec(tape)
	if err != nil {
		return RunSpec{}, err
	}
	if key, err := identity(rs, d.Sampling); err != nil || key != d.Key {
		return RunSpec{}, fmt.Errorf("sim: checkpoint descriptor does not describe its run %.12s…", d.Key)
	}
	return rs, nil
}

// ResumeTape continues a tape-backed run from sealed checkpoint bytes.
//
// Deprecated: rebuild the run with PeekCheckpoint and
// CheckpointDesc.RunSpec, then pass the checkpoint to Run with
// WithResume.
func ResumeTape(ctx context.Context, data []byte, tape *trace.Tape, progress Progress, opts ...RunOption) (Results, error) {
	d, err := PeekCheckpoint(data)
	if err != nil {
		return Results{}, err
	}
	if d.Tape == "" {
		return Results{}, fmt.Errorf("sim: checkpoint is not tape-backed")
	}
	rs, err := d.RunSpec(tape)
	if err != nil {
		return Results{}, err
	}
	return Run(ctx, rs, progress, append(opts, WithResume(data))...)
}

// CheckpointablePref reports whether runs of the given prefetcher
// variant can checkpoint: the None/Ideal/STMS kinds over the default
// bucket-LRU index organization. It is the one checkpointability
// predicate: the drivers gate checkpoint requests on it, sampling gates
// warm-state snapshots on it, and the distributed lab consults it
// before requesting checkpoint options for a job, so non-serializable
// variants run plain instead of failing fast. Sources must still be
// re-derivable (externally supplied generators are rejected at run
// time regardless of variant).
func CheckpointablePref(ps PrefSpec) bool {
	switch ps.Kind {
	case None, Ideal, STMS:
		return ps.STMSCfg == nil || ps.STMSCfg.Org == core.OrgBucketLRU
	}
	return false
}

// ckptSupported gates checkpoint requests on configurations whose full
// state is serializable over sources that can be re-derived.
func ckptSupported(desc CheckpointDesc, ps PrefSpec) error {
	switch {
	case !CheckpointablePref(ps):
		return fmt.Errorf("sim: %s runs are not checkpointable (only the baseline, ideal and stms variants over the default index organization are)", ps.Kind)
	case desc.Key == "":
		return fmt.Errorf("sim: runs over externally supplied generators are not checkpointable (sources cannot be re-derived)")
	}
	return nil
}

// check is the one resume identity check: a checkpoint restores only
// into the run that wrote it. A checkpoint of another workload, another
// sampling probability or engine geometry would restore cleanly and
// then produce wrong results.
func (want CheckpointDesc) check(d CheckpointDesc) error {
	if d.Key != want.Key {
		return fmt.Errorf("sim: checkpoint of %s run %.12s… does not match run %.12s…", d.Mode, d.Key, want.Key)
	}
	return nil
}

// --- shared binary helpers -------------------------------------------------

func putCounters(enc *ckpt.Encoder, c *counters) {
	enc.U64(c.Loads)
	enc.U64(c.L1Hits)
	enc.U64(c.PBFull)
	enc.U64(c.PBPartial)
	enc.U64(c.L2Hits)
	enc.U64(c.L2DemandMisses)
	enc.U64(c.StrideIssued)
	enc.U64(c.MSHRRetries)
}

func getCounters(dec *ckpt.Decoder, c *counters) {
	c.Loads = dec.U64()
	c.L1Hits = dec.U64()
	c.PBFull = dec.U64()
	c.PBPartial = dec.U64()
	c.L2Hits = dec.U64()
	c.L2DemandMisses = dec.U64()
	c.StrideIssued = dec.U64()
	c.MSHRRetries = dec.U64()
}

func putEngineCounts(enc *ckpt.Encoder, c *EngineCounts) {
	enc.U64(c.Lookups)
	enc.U64(c.LookupHits)
	enc.U64(c.Adopted)
	enc.U64(c.Abandoned)
	enc.U64(c.Resumed)
	enc.U64(c.DepthStops)
	enc.U64(c.Exhausted)
	enc.U64(c.Issued)
	enc.U64(c.Filtered)
	enc.U64(c.FullHits)
	enc.U64(c.PartialHits)
	enc.U64(c.Evicted)
}

func getEngineCounts(dec *ckpt.Decoder, c *EngineCounts) {
	c.Lookups = dec.U64()
	c.LookupHits = dec.U64()
	c.Adopted = dec.U64()
	c.Abandoned = dec.U64()
	c.Resumed = dec.U64()
	c.DepthStops = dec.U64()
	c.Exhausted = dec.U64()
	c.Issued = dec.U64()
	c.Filtered = dec.U64()
	c.FullHits = dec.U64()
	c.PartialHits = dec.U64()
	c.Evicted = dec.U64()
}

func snapshotPhases(enc *ckpt.Encoder, p *phaseTracker) {
	enc.Section("sim.phases")
	enc.Bool(p != nil)
	if p == nil {
		return
	}
	enc.Int(len(p.nextMark))
	for _, v := range p.nextMark {
		enc.Int(v)
	}
	enc.Int(len(p.crossed))
	for _, v := range p.crossed {
		enc.Int(v)
	}
	enc.Int(len(p.snaps))
	for i := range p.snaps {
		putCounters(enc, &p.snaps[i].cnt)
		enc.U64(p.snaps[i].cycles)
		enc.U64(p.snaps[i].instrs)
	}
}

func restorePhases(dec *ckpt.Decoder, p *phaseTracker) error {
	dec.Section("sim.phases")
	had := dec.Bool()
	if err := dec.Err(); err != nil {
		return err
	}
	if had != (p != nil) {
		return fmt.Errorf("sim: checkpoint phase structure does not match the run's")
	}
	if p == nil {
		return nil
	}
	nm := dec.Int()
	if err := dec.Err(); err != nil {
		return err
	}
	if nm != len(p.nextMark) {
		return fmt.Errorf("sim: checkpoint has %d phase cores, want %d", nm, len(p.nextMark))
	}
	for i := range p.nextMark {
		p.nextMark[i] = dec.Int()
	}
	nc := dec.Int()
	if err := dec.Err(); err != nil {
		return err
	}
	if nc != len(p.crossed) {
		return fmt.Errorf("sim: checkpoint has %d phase boundaries, want %d", nc, len(p.crossed))
	}
	for i := range p.crossed {
		p.crossed[i] = dec.Int()
	}
	ns := dec.Int()
	if err := dec.Err(); err != nil {
		return err
	}
	p.snaps = make([]phaseSnap, ns)
	for i := range p.snaps {
		getCounters(dec, &p.snaps[i].cnt)
		p.snaps[i].cycles = dec.U64()
		p.snaps[i].instrs = dec.U64()
	}
	return dec.Err()
}

func snapshotPref(enc *ckpt.Encoder, b *built, idOf func(event.Handler) (uint32, bool)) error {
	enc.Section("sim.pref")
	if b.engine != nil {
		if err := b.engine.Snapshot(enc, idOf); err != nil {
			return err
		}
	}
	if b.stms != nil {
		if err := b.stms.Snapshot(enc); err != nil {
			return err
		}
	}
	if b.ideal != nil {
		if err := b.ideal.Snapshot(enc); err != nil {
			return err
		}
	}
	return nil
}

func restorePref(dec *ckpt.Decoder, b *built, handlerOf func(uint32) (event.Handler, bool)) error {
	dec.Section("sim.pref")
	if b.engine != nil {
		if err := b.engine.Restore(dec, handlerOf); err != nil {
			return err
		}
	}
	if b.stms != nil {
		if err := b.stms.Restore(dec, b.engine.LookupDoneFor, b.engine.ReadDoneFor); err != nil {
			return err
		}
	}
	if b.ideal != nil {
		if err := b.ideal.Restore(dec); err != nil {
			return err
		}
	}
	return nil
}

// --- handler registry ------------------------------------------------------

// handlers returns the timed system's event.Handler registry in fixed
// construction order; snapshot and restore both derive ids from it, so
// the mapping is stable across processes by construction.
func (s *timed) handlers() []event.Handler {
	hs := []event.Handler{s, s.mc}
	if s.pref.engine != nil {
		hs = append(hs, s.pref.engine)
	}
	if s.pref.stms != nil {
		hs = append(hs, s.pref.stms)
	}
	for _, c := range s.cores {
		hs = append(hs, c)
	}
	return hs
}

func idOfFunc(hs []event.Handler) func(event.Handler) (uint32, bool) {
	return func(h event.Handler) (uint32, bool) {
		for i, x := range hs {
			if x == h {
				return uint32(i), true
			}
		}
		return 0, false
	}
}

func handlerOfFunc(hs []event.Handler) func(uint32) (event.Handler, bool) {
	return func(id uint32) (event.Handler, bool) {
		if int(id) >= len(hs) {
			return nil, false
		}
		return hs[id], true
	}
}

// --- timed driver ----------------------------------------------------------

// snapshot serializes the entire timed system between events.
func (s *timed) snapshot(enc *ckpt.Encoder) error {
	idOf := idOfFunc(s.handlers())
	enc.Section("sim.timed")
	enc.U64(s.totalRecs)
	enc.U64(s.allRecs)
	enc.U64s(s.recordsSeen)
	enc.Int(s.crossedWarm)
	enc.Bool(s.measuring)
	enc.U64(s.measureT0)
	putCounters(enc, &s.cnt)
	putCounters(enc, &s.cntSnap)
	putEngineCounts(enc, &s.engSnap)
	enc.U64s(s.committedSnap)
	for i := range s.mlp {
		m := &s.mlp[i]
		enc.U64(m.outstanding)
		enc.U64(m.lastT)
		enc.U64(m.busy)
		enc.U64(m.weighted)
	}
	snapshotPhases(enc, s.phases)
	if err := s.eng.Snapshot(enc, idOf); err != nil {
		return err
	}
	if err := s.mc.Snapshot(enc, idOf); err != nil {
		return err
	}
	s.l2.Snapshot(enc)
	s.l2mshr.Snapshot(enc)
	for _, c := range s.l1 {
		c.Snapshot(enc)
	}
	s.strid.Snapshot(enc)
	if err := snapshotPref(enc, &s.pref, idOf); err != nil {
		return err
	}
	for _, c := range s.cores {
		c.Snapshot(enc)
	}
	return nil
}

// restore rebuilds the freshly constructed timed system (cores not yet
// started) from a checkpoint decoder positioned after the descriptor.
func (s *timed) restore(dec *ckpt.Decoder) error {
	handlerOf := handlerOfFunc(s.handlers())
	dec.Section("sim.timed")
	totalRecs := dec.U64()
	s.allRecs = dec.U64()
	seen := dec.U64s()
	if err := dec.Err(); err != nil {
		return err
	}
	if totalRecs != s.totalRecs {
		return fmt.Errorf("sim: checkpoint run length %d does not match %d", totalRecs, s.totalRecs)
	}
	if len(seen) != len(s.recordsSeen) {
		return fmt.Errorf("sim: checkpoint has %d cores, want %d", len(seen), len(s.recordsSeen))
	}
	s.recordsSeen = seen
	s.crossedWarm = dec.Int()
	s.measuring = dec.Bool()
	s.measureT0 = dec.U64()
	getCounters(dec, &s.cnt)
	getCounters(dec, &s.cntSnap)
	getEngineCounts(dec, &s.engSnap)
	snap := dec.U64s()
	if err := dec.Err(); err != nil {
		return err
	}
	if len(snap) != len(s.committedSnap) {
		return fmt.Errorf("sim: corrupt checkpoint (committed snapshot)")
	}
	s.committedSnap = snap
	for i := range s.mlp {
		m := &s.mlp[i]
		m.outstanding = dec.U64()
		m.lastT = dec.U64()
		m.busy = dec.U64()
		m.weighted = dec.U64()
	}
	if err := restorePhases(dec, s.phases); err != nil {
		return err
	}
	if err := s.eng.Restore(dec, handlerOf); err != nil {
		return err
	}
	if err := s.mc.Restore(dec, handlerOf); err != nil {
		return err
	}
	if err := s.l2.Restore(dec); err != nil {
		return err
	}
	if err := s.l2mshr.Restore(dec); err != nil {
		return err
	}
	for _, c := range s.l1 {
		if err := c.Restore(dec); err != nil {
			return err
		}
	}
	if err := s.strid.Restore(dec); err != nil {
		return err
	}
	if err := restorePref(dec, &s.pref, handlerOf); err != nil {
		return err
	}
	for _, c := range s.cores {
		if err := c.Restore(dec); err != nil {
			return err
		}
	}
	return dec.Err()
}

// writeCkpt emits one checkpoint of the running timed system.
func (s *timed) writeCkpt(recs uint64) error {
	d := s.desc
	d.Records = recs
	return writeCheckpoint(&s.opt, d, s.snapshot)
}

// --- functional driver -----------------------------------------------------

// funcLoopState bundles the run loop's local cursor state so the
// snapshot/restore pair can see it alongside the functional struct.
type funcLoopState struct {
	i          uint64 // loop index = records processed
	seen       []uint64
	framesRead []uint64
	pos        []int
	frames     []*trace.Frame
	srcs       []trace.FrameSource
	phases     *phaseTracker
}

// snapshotFunc serializes the functional system at a record boundary.
// The functional driver is fully synchronous (no events, no pending
// operations), so the prefetch buffer can never hold waiters — the
// handler registry is empty.
func (s *functional) snapshotFunc(enc *ckpt.Encoder, ls *funcLoopState) error {
	noIDs := func(event.Handler) (uint32, bool) { return 0, false }
	enc.Section("sim.functional")
	enc.U64(ls.i)
	putCounters(enc, &s.cnt)
	putCounters(enc, &s.cntSnap)
	putEngineCounts(enc, &s.engSnap)
	enc.U64s(ls.seen)
	enc.U64s(ls.framesRead)
	for core := range ls.pos {
		enc.Int(ls.pos[core])
		enc.Bool(ls.frames[core] != nil)
	}
	snapshotPhases(enc, ls.phases)
	s.l2.Snapshot(enc)
	for _, c := range s.l1 {
		c.Snapshot(enc)
	}
	s.strid.Snapshot(enc)
	return snapshotPref(enc, &s.pref, noIDs)
}

// restoreFunc rebuilds the functional system and the loop cursors from
// a checkpoint decoder positioned after the descriptor, fast-forwarding
// each core's frame source to the checkpointed frame.
func (s *functional) restoreFunc(dec *ckpt.Decoder, ls *funcLoopState) error {
	noHandlers := func(uint32) (event.Handler, bool) { return nil, false }
	dec.Section("sim.functional")
	ls.i = dec.U64()
	getCounters(dec, &s.cnt)
	getCounters(dec, &s.cntSnap)
	getEngineCounts(dec, &s.engSnap)
	seen := dec.U64s()
	framesRead := dec.U64s()
	if err := dec.Err(); err != nil {
		return err
	}
	if len(seen) != len(ls.seen) || len(framesRead) != len(ls.framesRead) {
		return fmt.Errorf("sim: checkpoint core count does not match the run's")
	}
	copy(ls.seen, seen)
	copy(ls.framesRead, framesRead)
	for core := range ls.pos {
		ls.pos[core] = dec.Int()
		hadFrame := dec.Bool()
		if err := dec.Err(); err != nil {
			return err
		}
		for k := uint64(0); k < ls.framesRead[core]; k++ {
			f := ls.srcs[core].NextFrame()
			if f == nil {
				return fmt.Errorf("sim: core %d frame source ran dry after %d frames, checkpoint needs %d", core, k, ls.framesRead[core])
			}
			ls.frames[core] = f
		}
		if !hadFrame {
			ls.frames[core] = nil
		}
		if f := ls.frames[core]; f != nil && ls.pos[core] > f.Len() {
			return fmt.Errorf("sim: core %d frame position %d exceeds frame length %d", core, ls.pos[core], f.Len())
		}
	}
	if err := restorePhases(dec, ls.phases); err != nil {
		return err
	}
	if err := s.l2.Restore(dec); err != nil {
		return err
	}
	for _, c := range s.l1 {
		if err := c.Restore(dec); err != nil {
			return err
		}
	}
	if err := s.strid.Restore(dec); err != nil {
		return err
	}
	return restorePref(dec, &s.pref, noHandlers)
}
