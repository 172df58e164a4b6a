package sim

import (
	"context"
	"fmt"

	"stms/internal/trace"
)

// Progress receives periodic completion callbacks from a running
// simulation: done is the number of trace records processed so far
// (across all cores, warm-up included), total the number expected.
// Callbacks arrive from the goroutine driving the simulation, at most
// once per pollEvery records; total is 0 when the run length is not
// known up front (externally supplied sources).
type Progress func(done, total uint64)

// pollEvery is the record / event stride between context polls and
// progress callbacks: frequent enough that cancellation lands within a
// few microseconds of simulated work, rare enough to stay off profiles.
const pollEvery = 4096

// Mode selects the simulation driver.
type Mode int

// Drivers: the cycle-level timed simulation (speedups, traffic) and the
// fast zero-latency functional driver (coverage sweeps).
const (
	Timed Mode = iota
	Functional
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Timed:
		return "timed"
	case Functional:
		return "functional"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// parseMode reads a mode back from its name.
func parseMode(name string) (Mode, error) {
	for _, m := range []Mode{Timed, Functional} {
		if name == m.String() {
			return m, nil
		}
	}
	return 0, fmt.Errorf("sim: unknown mode %q", name)
}

// SourceRun bundles externally produced per-core frame sources — a
// stream.Inlet's Sources, typically — with the trace identity their
// producer announced, so a remote stream simulates bit-identically to
// the same trace consumed locally. PerCore is the per-core record count
// the sources will deliver (0 when unknown); when set, the run budget
// must match it exactly — a budget shorter than the stream would leave
// trailing frames half-consumed and shift the frame accounting away
// from direct replay's.
type SourceRun struct {
	Spec    trace.Spec
	Marks   []trace.PhaseMark
	Sources []trace.FrameSource
	PerCore uint64
}

// validate checks the source bundle against the run configuration.
func (r SourceRun) validate(cfg Config) error {
	total := cfg.WarmRecords + cfg.MeasureRecords
	switch {
	case len(r.Sources) != cfg.Cores:
		return fmt.Errorf("sim: %d frame sources for %d cores", len(r.Sources), cfg.Cores)
	case r.PerCore > 0 && total != r.PerCore:
		return fmt.Errorf("sim: stream delivers %d records/core, run budget is %d (warm %d + measure %d); they must match exactly",
			r.PerCore, total, cfg.WarmRecords, cfg.MeasureRecords)
	}
	return nil
}

// Source names the trace a run consumes. Exactly one field is set:
//
//   - Spec: a synthetic workload, full-scale (Config.Scale applies);
//   - Scenario: a phase-structured workload, full-scale, materialized
//     against the warm + measure budget; Results carry per-phase windows;
//   - Tape: a materialized trace built for the run's identity — same
//     scaled spec or scenario, seed, core count, and a per-core budget
//     covering warm + measure;
//   - Stream: externally produced frame sources (a remote stream, an
//     imported trace). Streams cannot be re-derived, so they neither
//     checkpoint nor sample.
//
// Generation is a pure function of (workload, seed, core), so a Spec or
// Scenario run is bit-identical to the same run over a Tape of that
// identity, or over a Stream delivering it.
type Source struct {
	Spec     *trace.Spec
	Scenario *trace.Scenario
	Tape     *trace.Tape
	Stream   *SourceRun
}

// RunSpec describes one simulation: the driver, the system, the trace
// and the prefetcher variant.
type RunSpec struct {
	Mode   Mode
	Config Config
	Source Source
	Pref   PrefSpec
}

// genMaker builds fresh per-core generators positioned skip records in
// (per core) with exactly budget records remaining, plus the trace's
// phase marks. The sampling scheduler calls it once per window, so
// implementations must not share mutable state across calls.
type genMaker func(skip, budget uint64) ([]trace.Generator, []trace.PhaseMark, error)

// resolved is a RunSpec's source resolved once: the scaled trace
// identity results are labelled with, the checkpoint descriptor
// template (zero for a Stream source, which cannot checkpoint), and
// either a generator maker or the external stream.
type resolved struct {
	scaled  trace.Spec
	perCore uint64 // records per core the sources deliver; 0 = unknown
	desc    CheckpointDesc
	mk      genMaker   // nil for a Stream source
	stream  *SourceRun // non-nil for a Stream source
}

// resolve validates a RunSpec and resolves its source. An exact run is
// mk(0, warm+measure); each sampled window makes its own generators.
func resolve(rs RunSpec) (resolved, error) {
	cfg := rs.Config
	if err := cfg.Validate(); err != nil {
		return resolved{}, err
	}
	if rs.Mode != Timed && rs.Mode != Functional {
		return resolved{}, fmt.Errorf("sim: unknown mode %d", int(rs.Mode))
	}
	s := rs.Source
	if err := s.check(); err != nil {
		return resolved{}, err
	}
	if s.Stream != nil {
		if err := s.Stream.validate(cfg); err != nil {
			return resolved{}, err
		}
		return resolved{scaled: s.Stream.Spec, perCore: s.Stream.PerCore, stream: s.Stream}, nil
	}
	total := cfg.WarmRecords + cfg.MeasureRecords
	if s.Tape != nil {
		if err := tapeFits(cfg, s.Tape, total); err != nil {
			return resolved{}, err
		}
	}
	desc, err := rs.desc(nil)
	if err != nil {
		return resolved{}, err
	}
	// Every generator is capped at its budget, mirroring the tape's
	// CursorN, so frame boundaries — and Results.Frames — are identical
	// across drivers and trace substrates.
	switch {
	case s.Spec != nil:
		spec := *s.Spec
		scaled := spec.Scaled(cfg.Scale)
		mk := func(skip, budget uint64) ([]trace.Generator, []trace.PhaseMark, error) {
			lib := trace.NewLibrary(scaled, cfg.Seed)
			gens := make([]trace.Generator, cfg.Cores)
			for i := range gens {
				gens[i] = trace.NewGenerator(lib, i, cfg.Seed)
			}
			gens, err := limited(gens, skip, budget)
			return gens, nil, err
		}
		return resolved{scaled: scaled, perCore: total, desc: desc, mk: mk}, nil
	case s.Scenario != nil:
		scn := *s.Scenario
		scaled := scn.Scaled(cfg.Scale)
		// Generators materialize against the whole run's budget, so
		// phase boundaries sit where the exact run puts them in every
		// sampled window too.
		mk := func(skip, budget uint64) ([]trace.Generator, []trace.PhaseMark, error) {
			gens, marks, err := scaled.Generators(cfg.Seed, cfg.Cores, total)
			if err != nil {
				return nil, nil, err
			}
			gens, err = limited(gens, skip, budget)
			return gens, marks, err
		}
		return resolved{scaled: scaled.EffectiveSpec(cfg.Cores, total), perCore: total, desc: desc, mk: mk}, nil
	default:
		tape := s.Tape
		// Cursors decode from the head of each core's column — the tape
		// has no random access — so very large K over very long tapes
		// pays quadratic decode work; decode is ~100× cheaper than
		// detailed simulation, which keeps the skip in the noise at
		// practical window counts.
		mk := func(skip, budget uint64) ([]trace.Generator, []trace.PhaseMark, error) {
			gens := make([]trace.Generator, cfg.Cores)
			for i := range gens {
				cu := tape.CursorN(i, skip+budget)
				if err := drainRecords(cu, skip); err != nil {
					return nil, nil, err
				}
				gens[i] = cu
			}
			return gens, tape.Marks(), nil
		}
		return resolved{scaled: tape.Spec(), perCore: total, desc: desc, mk: mk}, nil
	}
}

// limited skips skip records of each generator and caps it at budget
// more.
func limited(gens []trace.Generator, skip, budget uint64) ([]trace.Generator, error) {
	for i, g := range gens {
		if err := drainRecords(g, skip); err != nil {
			return nil, err
		}
		gens[i] = &trace.Limit{Gen: g, N: budget}
	}
	return gens, nil
}

// frames opens the exact run's per-core frame sources and phase marks.
// Each core's records arrive frame-at-a-time from a pipelined source: a
// producer goroutine decodes (or generates) the next frame while the
// simulation works through the current one.
func (r resolved) frames(cfg Config) ([]trace.FrameSource, []trace.PhaseMark, error) {
	if r.stream != nil {
		return r.stream.Sources, r.stream.Marks, nil
	}
	gens, marks, err := r.mk(0, cfg.WarmRecords+cfg.MeasureRecords)
	if err != nil {
		return nil, nil, err
	}
	srcs := make([]trace.FrameSource, len(gens))
	for i, g := range gens {
		srcs[i] = trace.AutoFrames(g)
	}
	return srcs, marks, nil
}

// tapeFits verifies a tape covers the run a config describes. Scenario
// tapes must match the run budget exactly: fraction-based phases
// resolve against the materialization budget, so replaying a longer
// scenario tape for a shorter run would shift every phase boundary
// relative to live generation.
func tapeFits(cfg Config, tape *trace.Tape, perCore uint64) error {
	switch {
	case tape.Cores() != cfg.Cores:
		return fmt.Errorf("sim: tape holds %d cores, config needs %d", tape.Cores(), cfg.Cores)
	case tape.Seed() != cfg.Seed:
		return fmt.Errorf("sim: tape seed %d, config seed %d", tape.Seed(), cfg.Seed)
	case tape.PerCore() < perCore:
		return fmt.Errorf("sim: tape budget %d records/core, run needs %d", tape.PerCore(), perCore)
	case tape.Scenario() != nil && tape.PerCore() != perCore:
		return fmt.Errorf("sim: scenario tape materialized for %d records/core, run needs exactly %d",
			tape.PerCore(), perCore)
	}
	return nil
}

// Run executes one simulation to completion and returns its windowed
// Results. The context is polled every few thousand records (nil means
// never cancelled); on cancellation the run stops promptly and returns
// ctx.Err(). Configuration and source errors are returned, never
// panicked. A source whose producer dies mid-run fails the run with its
// error rather than passing a short trace off as the real one.
//
// Options add checkpointing (WithCheckpointEvery, WithCheckpointFunc,
// WithCheckpointHalt, WithCheckpointSignal) or restore the run from a
// checkpoint (WithResume), whose descriptor must name this exact run:
// mode, configuration, prefetcher spec and trace identity.
// CheckpointDesc.RunSpec rebuilds the RunSpec a checkpoint belongs to.
func Run(ctx context.Context, rs RunSpec, progress Progress, opts ...RunOption) (Results, error) {
	r, err := resolve(rs)
	if err != nil {
		return Results{}, err
	}
	return r.run(ctx, rs, progress, opts)
}

// run executes the exact (unsampled) run of a resolved RunSpec.
func (r resolved) run(ctx context.Context, rs RunSpec, progress Progress, opts []RunOption) (Results, error) {
	srcs, marks, err := r.frames(rs.Config)
	if err != nil {
		return Results{}, err
	}
	if rs.Mode == Functional {
		return runFunctional(ctx, rs.Config, r.scaled, srcs, marks, rs.Pref, progress, r.desc, opts)
	}
	return runTimed(ctx, rs.Config, r.scaled, srcs, marks, rs.Pref, progress, r.perCore*uint64(rs.Config.Cores), r.desc, opts)
}

// RunTimedTapeCtx is Run in timed mode over a tape.
//
// Deprecated: use Run with Source{Tape: tape}.
func RunTimedTapeCtx(ctx context.Context, cfg Config, tape *trace.Tape, ps PrefSpec, progress Progress, opts ...RunOption) (Results, error) {
	return Run(ctx, RunSpec{Mode: Timed, Config: cfg, Source: Source{Tape: tape}, Pref: ps}, progress, opts...)
}

// RunFunctionalTapeCtx is Run in functional mode over a tape.
//
// Deprecated: use Run with Source{Tape: tape}.
func RunFunctionalTapeCtx(ctx context.Context, cfg Config, tape *trace.Tape, ps PrefSpec, progress Progress, opts ...RunOption) (Results, error) {
	return Run(ctx, RunSpec{Mode: Functional, Config: cfg, Source: Source{Tape: tape}, Pref: ps}, progress, opts...)
}

// RunFunctionalSourcesCtx is Run in functional mode over a stream.
//
// Deprecated: use Run with Source{Stream: &run}.
func RunFunctionalSourcesCtx(ctx context.Context, cfg Config, run SourceRun, ps PrefSpec, progress Progress, opts ...RunOption) (Results, error) {
	return Run(ctx, RunSpec{Mode: Functional, Config: cfg, Source: Source{Stream: &run}, Pref: ps}, progress, opts...)
}
