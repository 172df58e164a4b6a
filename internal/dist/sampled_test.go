package dist

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"stms/internal/sim"
	"stms/internal/trace"
)

// sampledJob is testJob sampled at K windows.
func sampledJob(t *testing.T, workload string, k int) *Job {
	t.Helper()
	job := testJob(t, workload, sim.PrefSpec{Kind: sim.STMS, SampleProb: 0.125})
	job.Sampling = &sim.Sampling{Windows: k}
	return job
}

// TestSampledExecuteJobMatchesRunSampled: a sampled job executes as
// sim.RunSampled, over a tape or live, and its key is the sampled
// run's identity.
func TestSampledExecuteJobMatchesRunSampled(t *testing.T) {
	job := sampledJob(t, "oltp-db2", 3)
	want, err := sim.RunSampled(context.Background(), job.Run, *job.Sampling, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, store := range []*Store{nil, NewStore(1<<30, "")} {
		r, err := ExecuteJob(context.Background(), job, store, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.Sampled == nil || !reflect.DeepEqual(*r.Sampled, want) || !reflect.DeepEqual(r.Res, want.Results) {
			t.Fatalf("store %v: sampled job differs from sim.RunSampled", store != nil)
		}
		if err := job.check(r); err != nil {
			t.Fatal(err)
		}
		// The same estimate does not answer a job sampled otherwise,
		// nor an exact job.
		other := *job
		other.Sampling = &sim.Sampling{Windows: 4}
		exact := *job
		exact.Sampling = nil
		if other.check(r) == nil || exact.check(r) == nil {
			t.Fatal("a sampled result answered a job it does not belong to")
		}
	}
	key, err := job.CkptKey()
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := job.Run.SampledKey(*job.Sampling); key != want {
		t.Fatalf("sampled job key %s, want the sampled run's identity %s", key, want)
	}
}

// TestSampledExecuteJobResume: a sampled job stopped after its first
// checkpoint resumes from the container into the identical estimate.
func TestSampledExecuteJobResume(t *testing.T) {
	job := sampledJob(t, "sci-em3d", 3)
	// Windows long enough to pass several checkpoint sites each.
	job.Run.Config.WarmRecords, job.Run.Config.MeasureRecords = 2_000, 12_000
	store := NewStore(1<<30, "")
	cold, err := ExecuteJob(context.Background(), job, store, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var once sync.Once
	var snap []byte
	_, err = ExecuteJob(context.Background(), job, store, nil, nil, &ExecOptions{
		Every: 2_000,
		Stop:  stop,
		Sink: func(data []byte) error {
			snap = append(snap[:0], data...)
			once.Do(func() { close(stop) })
			return nil
		},
	})
	if !errors.Is(err, sim.ErrCheckpointed) || snap == nil {
		t.Fatalf("stopped run: err %v, checkpoint %v; want ErrCheckpointed with a container", err, snap != nil)
	}
	d, err := sim.PeekCheckpoint(snap)
	if err != nil {
		t.Fatal(err)
	}
	key, _ := job.CkptKey()
	if d.Key != key || d.Records == 0 {
		t.Fatalf("container key %.12s… at %d records, want the job's key %.12s… mid-run", d.Key, d.Records, key)
	}

	r, err := ExecuteJob(context.Background(), job, store, nil, nil, &ExecOptions{Resume: snap})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Resumed || !reflect.DeepEqual(r.Sampled, cold.Sampled) {
		t.Fatalf("resumed %v, identical %v: want a resumed run with the cold estimate", r.Resumed, reflect.DeepEqual(r.Sampled, cold.Sampled))
	}
}

// TestSampledResultsJSONRoundTrip: a sampled result crosses the wire
// losslessly, so a remote sampled cell equals a local one.
func TestSampledResultsJSONRoundTrip(t *testing.T) {
	r, err := ExecuteJob(context.Background(), sampledJob(t, "web-apache", 4), nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, &back) {
		t.Fatalf("sampled result changed across the wire:\n got %+v\nwant %+v", back.Sampled, r.Sampled)
	}
}

// TestExecuteJobWallExcludesTapeFetch: WallMS times the simulation
// alone, not the tape fetch before it, so a remote cell's overhead
// (coordinator wall minus WallMS) includes its tape wait exactly as a
// local cell's does.
func TestExecuteJobWallExcludesTapeFetch(t *testing.T) {
	job := testJob(t, "sci-em3d", sim.PrefSpec{Kind: sim.None})
	_, build, err := job.Run.TapeRecipe()
	if err != nil {
		t.Fatal(err)
	}
	const sleep = 300 * time.Millisecond
	fetch := func(ctx context.Context, key string) (*trace.Tape, error) {
		time.Sleep(sleep)
		return build(), nil
	}
	start := time.Now()
	r, err := ExecuteJob(context.Background(), job, NewStore(1<<30, ""), fetch, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if r.TapeSource != TapeFromPeer {
		t.Fatalf("tape source %q, want the fetched tape", r.TapeSource)
	}
	if wall := time.Duration(r.WallMS * float64(time.Millisecond)); wall <= 0 || wall > elapsed-sleep {
		t.Fatalf("WallMS %v of %v elapsed, want it to exclude the %v tape fetch", wall, elapsed, sleep)
	}
}
