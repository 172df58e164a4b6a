// Package dist is the distributed lab: it lets a pool of stms-serve
// worker processes execute run-matrix cells on behalf of a
// coordinator, over a content-addressed store of materialized trace
// tapes.
//
// The package decomposes into four pieces:
//
//   - the wire protocol (this file): versioned JSON structures for
//     cell jobs, streamed progress events, and results. A job is the
//     serialized identity of one lab cell — workload spec or scenario,
//     prefetcher variant, system config, driver mode — and cells are
//     pure functions of that identity, so remote execution is
//     memoization over the network: any worker, any time, same bits.
//   - Store: a two-tier (memory LRU → on-disk STMSTAPE directory)
//     content-addressed tape store, singleflight-guarded, shared by
//     the lab's in-process tape cache and every worker.
//   - Server: the worker daemon's HTTP API — POST /jobs streams
//     progress and the final result as JSON lines, GET/PUT
//     /tapes/{key} move tapes between workers so each unique tape is
//     built once fleet-wide, GET /healthz advertises capacity.
//   - Client: the coordinator's view of one worker, separating
//     transport failures (retry on another worker) from job failures
//     (deterministic; retrying elsewhere would fail identically).
//
// Every lab cell, local or remote, exact or sampled, is simulated by
// ExecuteJob, so a matrix executed across workers is bit-identical to
// the same plan run locally.
package dist

import (
	"errors"
	"fmt"

	"stms/internal/sim"
)

// Protocol format versions, stamped into and validated out of every
// top-level JSON document, in the same style as scenario files
// ({"stms_scenario":1,...}) and STMSTAPE headers. Job version 2 carries
// the run as one sim.RunSpec document; version 3 adds the Sampling of a
// sampled cell. Workers reject older jobs.
const (
	JobFormatVersion    = 3
	EventFormatVersion  = 1
	ResultFormatVersion = 1
	HealthFormatVersion = 1
)

// Job is one cell of work: everything that determines a simulation's
// result, in versioned JSON. Run is the cell's simulation in sim's
// canonical RunSpec encoding — its source a full-scale Spec
// (Config.Scale applies at run, exactly as in an in-process lab cell)
// or a Scenario; Workload and Variant only label it. Sampling, set only
// for a sampled cell, runs the job as sim.RunSampled with K > 1
// windows instead of the exact sim.Run.
type Job struct {
	Version  int           `json:"stms_job"`
	Workload string        `json:"workload"`
	Variant  string        `json:"variant"`
	Run      sim.RunSpec   `json:"run"`
	Sampling *sim.Sampling `json:"sampling,omitempty"`
}

// Validate reports structural protocol errors (the simulation-level
// validation of config and spec happens when the job executes).
func (j *Job) Validate() error {
	src := j.Run.Source
	switch {
	case j.Version != JobFormatVersion:
		return fmt.Errorf("dist: job format version %d, want %d", j.Version, JobFormatVersion)
	case j.Run.Mode != sim.Timed && j.Run.Mode != sim.Functional:
		return fmt.Errorf("dist: job mode %d is neither timed nor functional", int(j.Run.Mode))
	case (src.Spec == nil) == (src.Scenario == nil) || src.Tape != nil || src.Stream != nil:
		return fmt.Errorf("dist: a job's workload is exactly one of a spec and a scenario")
	case j.Sampling != nil && (j.Sampling.Windows < 2 || j.Run.Mode != sim.Timed):
		return fmt.Errorf("dist: a sampled job is timed with at least 2 windows (exact jobs omit sampling)")
	}
	return nil
}

// CkptKey returns the content address of the job's checkpoint: its
// run's identity (sim.RunSpec.Key, or SampledKey for a sampled job),
// which is also the lab's memo key for the cell. Unlike tapes, a
// checkpoint is only meaningful to the exact run that wrote it (the
// serialized state embeds the variant's tables and in-flight
// operations), so the prefetcher spec is part of the address. One key
// names one run's "latest checkpoint": each cadence overwrites the
// previous container.
func (j *Job) CkptKey() (string, error) {
	if j.Sampling != nil {
		return j.Run.SampledKey(*j.Sampling)
	}
	return j.Run.Key()
}

// check verifies that a result answers this job: a sampled job's
// result carries the sampled estimate at the job's normalized
// sampling, an exact job's carries none.
func (j *Job) check(r *Result) error {
	switch {
	case j.Sampling == nil && r.Sampled != nil:
		return fmt.Errorf("dist: exact job %s/%s answered with a sampled estimate", j.Workload, j.Variant)
	case j.Sampling == nil:
		return nil
	case r.Sampled == nil:
		return fmt.Errorf("dist: sampled job %s/%s answered with an exact result", j.Workload, j.Variant)
	}
	want, err := j.CkptKey()
	if err != nil {
		return err
	}
	if got, err := j.Run.SampledKey(r.Sampled.Sampling); err != nil || got != want {
		return fmt.Errorf("dist: sampled job %s/%s answered with an estimate at sampling %+v", j.Workload, j.Variant, r.Sampled.Sampling)
	}
	return nil
}

// TapeSource records which tier satisfied a job's tape: the worker's
// memory cache, its disk tier, a peer worker, a fresh build, or "live"
// when the worker runs without a store and generates records in place.
type TapeSource string

// Tape sources, in lookup order.
const (
	TapeFromMemory TapeSource = "memory"
	TapeFromDisk   TapeSource = "disk"
	TapeFromPeer   TapeSource = "peer"
	TapeBuilt      TapeSource = "built"
	TapeLive       TapeSource = "live"
)

// Result is a completed job: the full simulation Results (which
// round-trip JSON losslessly, so the coordinator's matrix is
// bit-identical to an in-process run) plus execution metadata. A
// sampled job's result also carries the full estimate in Sampled (per
// window details, confidence intervals); Res is then its stitched
// Results. WallMS is the simulation's wall time only, excluding the
// tape build or fetch that preceded it.
type Result struct {
	Version    int                 `json:"stms_result"`
	Res        sim.Results         `json:"results"`
	Sampled    *sim.SampledResults `json:"sampled,omitempty"`
	TapeSource TapeSource          `json:"tape_source"`
	Worker     string              `json:"worker,omitempty"`
	WallMS     float64             `json:"wall_ms"`
	// Checkpoint accounting (additive in result version 1; absent on
	// workers without checkpointing). Resumed reports that the worker
	// restored the run from a checkpoint instead of starting cold;
	// CkptWrites/CkptBytes count the checkpoints the run itself wrote.
	Resumed    bool   `json:"resumed,omitempty"`
	CkptWrites uint64 `json:"ckpt_writes,omitempty"`
	CkptBytes  uint64 `json:"ckpt_bytes,omitempty"`
}

// Event is one line of a job's progress stream. Kind is "queued" (a
// heartbeat while the job waits for an execution slot), "started",
// "progress" (Done/Total records processed), "done" (Result set),
// "failed" (Error set), or "checkpointed" (the worker is shutting down
// gracefully and flushed the job's final checkpoint to its store; the
// coordinator should fetch it and retry warm on another worker).
// Consumers ignore kinds they don't know, so new heartbeat kinds are
// not a protocol break; any event resets the client's stall detector.
type Event struct {
	Version int     `json:"stms_event"`
	Kind    string  `json:"event"`
	JobID   string  `json:"job_id,omitempty"`
	Done    uint64  `json:"done,omitempty"`
	Total   uint64  `json:"total,omitempty"`
	Result  *Result `json:"result,omitempty"`
	Error   string  `json:"error,omitempty"`
}

// Health is the worker's GET /healthz document. Resumable and Ckpts
// are additive fields (version stays 1 so old coordinators keep
// working): a resumable worker checkpoints long jobs to its store and
// serves them over GET/PUT /ckpts/{key}.
type Health struct {
	Version   int    `json:"stms_worker"`
	Name      string `json:"name"`
	Cores     int    `json:"cores"`
	MaxJobs   int    `json:"max_jobs"`
	InFlight  int    `json:"in_flight"`
	Tapes     int    `json:"tapes"`               // tapes resident in the memory tier
	Resumable bool   `json:"resumable,omitempty"` // worker checkpoints jobs and serves /ckpts
	Ckpts     int    `json:"ckpts,omitempty"`     // checkpoints resident in the store
}

// ErrWorkerCheckpointed marks a job stream that ended with a
// "checkpointed" terminal event: the worker shut down gracefully after
// flushing the job's final checkpoint. It is wrapped in a
// TransportError — retrying on another worker helps, and with the
// checkpoint exchanged first the retry resumes warm instead of cold.
var ErrWorkerCheckpointed = errors.New("dist: worker checkpointed the job and shut down")

// TransportError marks failures of the transport — connection refused,
// unexpected HTTP status, a response stream cut mid-job — as opposed
// to failures of the job itself. Transport failures are retried on
// another worker; job failures are deterministic and are not.
type TransportError struct{ Err error }

// Error implements error.
func (e *TransportError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying failure.
func (e *TransportError) Unwrap() error { return e.Err }

// IsTransport reports whether err (anywhere in its chain) is a
// transport failure, i.e. whether retrying on another worker can help.
func IsTransport(err error) bool {
	for err != nil {
		if _, ok := err.(*TransportError); ok {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}
