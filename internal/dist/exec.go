package dist

import (
	"context"
	"errors"
	"time"

	"stms/internal/sim"
	"stms/internal/trace"
)

// ExecOptions configures checkpointing for one job execution. The zero
// value (or a nil pointer) runs the job plain, exactly as before
// checkpoints existed.
type ExecOptions struct {
	// Resume is a sealed STMSCKPT container to restore the run from.
	// sim validates it against the job's full identity (mode, config,
	// complete prefetcher spec, trace identity) before trusting it; a
	// mismatched or corrupt container is discarded and the job runs
	// from scratch — a bad checkpoint can cost time, never correctness.
	Resume []byte
	// Every is the checkpoint cadence in trace records across all
	// cores; 0 writes no periodic checkpoints.
	Every uint64
	// Sink receives each sealed checkpoint container. Required for
	// checkpointing: without it Every and Stop are ignored.
	Sink func(data []byte) error
	// Stop, when closed, requests a final checkpoint followed by a
	// halt with sim.ErrCheckpointed — the graceful-shutdown path.
	Stop <-chan struct{}
}

// active reports whether this execution should request checkpoints.
// Non-checkpointable variants (comparators, index-organization
// ablations) run plain rather than failing: a worker with a checkpoint
// cadence must still execute every job the protocol allows.
func (o *ExecOptions) active(job *Job) bool {
	if o == nil || o.Sink == nil || (o.Every == 0 && o.Stop == nil) {
		return false
	}
	return sim.CheckpointablePref(job.Run.Pref)
}

// runOptions assembles the sim run options for this execution.
func (o *ExecOptions) runOptions(job *Job) []sim.RunOption {
	if !o.active(job) {
		return nil
	}
	opts := []sim.RunOption{sim.WithCheckpointFunc(o.Every, o.Sink)}
	if o.Stop != nil {
		opts = append(opts, sim.WithCheckpointSignal(o.Stop))
	}
	return opts
}

// ExecuteJob runs one cell job to completion — exact (sim.Run) or
// sampled (sim.RunSampled) — serving its record stream from the store
// when one is given (fetch, usually a peer lookup, feeds the store's
// miss path). It is the only code that simulates a lab cell, whether
// the lab runs it in process or a worker runs it for a coordinator,
// which is what makes a remotely executed matrix bit-identical to a
// local run. The Result's WallMS covers the simulation only, from the
// moment the tape is in hand.
//
// exec (nil for a plain run) threads checkpointing through:
// ExecOptions.Resume warm-starts the run when sim accepts it as this
// job's checkpoint (Result.Resumed reports whether it did — a
// mismatched or unrestorable checkpoint is discarded and the job runs
// cold, never trusted), Every/Sink stream periodic checkpoints out, and
// Stop requests a final checkpoint + sim.ErrCheckpointed for graceful
// shutdown. Because checkpoints are pure observation, results are
// bit-identical with or without them, resumed or cold.
func ExecuteJob(ctx context.Context, job *Job, store *Store,
	fetch func(context.Context, string) (*trace.Tape, error), progress sim.Progress,
	exec *ExecOptions) (*Result, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	rs := job.Run
	out := &Result{Version: ResultFormatVersion, TapeSource: TapeLive}
	if store != nil {
		// Validate before touching the store — sim validates again, but
		// only after the tape exists, and a job with a broken config
		// must not cost a tape build.
		if err := rs.Config.Validate(); err != nil {
			return nil, err
		}
		key, build, err := rs.TapeRecipe()
		if err != nil {
			return nil, err
		}
		var fetchKey func(context.Context) (*trace.Tape, error)
		if fetch != nil {
			fetchKey = func(ctx context.Context) (*trace.Tape, error) { return fetch(ctx, key) }
		}
		tape, tier, err := store.GetOrBuild(ctx, key, fetchKey, build)
		if err != nil {
			return nil, err
		}
		rs.Source, out.TapeSource = sim.Source{Tape: tape}, tier
	}

	start := time.Now()
	run := func(opts []sim.RunOption) (err error) {
		if job.Sampling == nil {
			out.Res, err = sim.Run(ctx, rs, progress, opts...)
			return err
		}
		s, err := sim.RunSampled(ctx, rs, *job.Sampling, progress, opts...)
		out.Res, out.Sampled = s.Results, &s
		return err
	}
	base := exec.runOptions(job)
	if exec != nil && len(exec.Resume) > 0 && sim.CheckpointablePref(rs.Pref) {
		err := run(append(append([]sim.RunOption{}, base...), sim.WithResume(exec.Resume)))
		switch {
		case err == nil:
			out.Resumed = true
		case errors.Is(err, sim.ErrCheckpointed) || ctx.Err() != nil:
			return nil, err
		}
		// Any other failure means the checkpoint is corrupt, belongs to
		// another run, or would not restore: discard it and run cold.
	}
	if !out.Resumed {
		if err := run(base); err != nil {
			return nil, err
		}
	}
	out.WallMS = float64(time.Since(start).Microseconds()) / 1000
	return out, nil
}
