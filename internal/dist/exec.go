package dist

import (
	"context"
	"errors"

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
	return sim.CheckpointablePref(job.Pref)
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

// ExecuteJob runs one cell job to completion, serving its record
// stream from the store when one is given (fetch, usually a peer
// lookup, feeds the store's miss path). The execution mirrors the
// in-process lab's cell path exactly — same validation order, same
// scaled identities, same sim.Run — which is what makes a remotely
// executed matrix bit-identical to a local run.
//
// exec (nil for a plain run) threads checkpointing through:
// ExecOptions.Resume warm-starts the run when sim accepts it as this
// job's checkpoint (resumed reports whether it did — a mismatched or
// unrestorable checkpoint is discarded and the job runs cold, never
// trusted), Every/Sink stream periodic checkpoints out, and Stop
// requests a final checkpoint + sim.ErrCheckpointed for graceful
// shutdown. Because checkpoints are pure observation, results are
// bit-identical with or without them, resumed or cold.
func ExecuteJob(ctx context.Context, job *Job, store *Store,
	fetch func(context.Context, string) (*trace.Tape, error), progress sim.Progress,
	exec *ExecOptions) (sim.Results, TapeSource, bool, error) {
	if err := job.Validate(); err != nil {
		return sim.Results{}, TapeLive, false, err
	}
	src, err := job.source()
	if err != nil {
		return sim.Results{}, TapeLive, false, err
	}
	rs := sim.RunSpec{Mode: sim.Timed, Config: job.Config, Source: src, Pref: job.Pref}
	if job.Mode == "functional" {
		rs.Mode = sim.Functional
	}

	var from TapeSource = TapeLive
	if store != nil {
		// Validate before touching the store — sim.Run validates again,
		// but only after the tape exists, and a job with a broken config
		// must not cost a tape build.
		if err := rs.Config.Validate(); err != nil {
			return sim.Results{}, TapeLive, false, err
		}
		key, build := TapeRecipe(src, rs.Config)
		var fetchKey func(context.Context) (*trace.Tape, error)
		if fetch != nil {
			fetchKey = func(ctx context.Context) (*trace.Tape, error) { return fetch(ctx, key) }
		}
		tape, tier, err := store.GetOrBuild(ctx, key, fetchKey, build)
		if err != nil {
			return sim.Results{}, tier, false, err
		}
		rs.Source, from = sim.Source{Tape: tape}, tier
	}

	base := exec.runOptions(job)
	if exec != nil && len(exec.Resume) > 0 && sim.CheckpointablePref(job.Pref) {
		res, err := sim.Run(ctx, rs, progress, append(append([]sim.RunOption{}, base...), sim.WithResume(exec.Resume))...)
		switch {
		case err == nil:
			return res, from, true, nil
		case errors.Is(err, sim.ErrCheckpointed) || ctx.Err() != nil:
			return res, from, true, err
		}
		// The checkpoint is corrupt, belongs to another run, or would
		// not restore: discard it and fall through to a cold run.
	}
	res, err := sim.Run(ctx, rs, progress, base...)
	return res, from, false, err
}
