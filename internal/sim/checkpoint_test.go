package sim

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"stms/internal/core"
	"stms/internal/trace"
)

// ckptConfig is a deliberately small configuration so the full
// workload × scenario × cadence sweep stays fast. Warm and measure
// windows are sized so checkpoints land on both sides of the warm
// boundary.
func ckptConfig() Config {
	cfg := DefaultConfig()
	cfg.Scale = 0.0625
	cfg.WarmRecords = 4_000
	cfg.MeasureRecords = 6_000
	return cfg
}

// ckptCadences exercises three checkpoint spacings: 1003 lands inside
// decoded frames (FrameCap is 1024) and inside every scenario phase,
// 4096 aligns with the poll stride, and 15000 crosses the warm
// boundary with only a couple of checkpoints per run.
var ckptCadences = []uint64{1003, 4096, 15000}

// runFn abstracts one run shape so the round-trip property can be
// checked uniformly across drivers and sources.
type runFn func(opts ...RunOption) (Results, error)

// checkRoundTrip proves the two checkpoint invariants for one run:
// (1) a checkpointing run is bit-identical to a non-checkpointing run
// (snapshots are pure observation), and (2) resuming from any captured
// checkpoint — a simulated kill at that exact boundary — reproduces
// the uninterrupted run bit-for-bit. Checkpoints resume through the
// RunSpec their descriptor rebuilds, so the descriptor round-trip is
// covered too.
func checkRoundTrip(t *testing.T, run runFn, every uint64) {
	t.Helper()
	base, err := run()
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	var ckpts [][]byte
	observed, err := run(WithCheckpointFunc(every, func(data []byte) error {
		cp := make([]byte, len(data))
		copy(cp, data)
		ckpts = append(ckpts, cp)
		return nil
	}))
	if err != nil {
		t.Fatalf("checkpointing run: %v", err)
	}
	if !reflect.DeepEqual(base, observed) {
		t.Fatalf("checkpointing perturbed the run:\nbase %+v\nckpt %+v", base, observed)
	}
	if len(ckpts) == 0 {
		t.Fatalf("no checkpoints captured at cadence %d", every)
	}
	for _, k := range sampleIndices(len(ckpts)) {
		resumed, err := resumeRun(context.Background(), ckpts[k], nil, nil)
		if err != nil {
			t.Fatalf("resume from checkpoint %d/%d: %v", k, len(ckpts), err)
		}
		if !reflect.DeepEqual(base, resumed) {
			t.Fatalf("resume from checkpoint %d/%d diverged:\nbase    %+v\nresumed %+v", k, len(ckpts), base, resumed)
		}
	}
}

// sampleIndices picks the first, middle, and last checkpoint so every
// run validates an early kill, a mid-run kill, and a late kill without
// re-running the simulation dozens of times.
func sampleIndices(n int) []int {
	switch n {
	case 1:
		return []int{0}
	case 2:
		return []int{0, 1}
	}
	return []int{0, n / 2, n - 1}
}

// ckptVariants cycles the checkpointable prefetcher variants across
// the sweep so each is exercised against several workloads without
// multiplying the matrix.
var ckptVariants = []PrefSpec{{Kind: STMS}, {Kind: Ideal}, {Kind: None}}

func TestCheckpointResumeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload sweep")
	}
	cfg := ckptConfig()
	for i, spec := range trace.Specs() {
		spec := spec
		ps := ckptVariants[i%len(ckptVariants)]
		every := ckptCadences[i%len(ckptCadences)]
		t.Run(spec.Name+"/timed", func(t *testing.T) {
			t.Parallel()
			checkRoundTrip(t, func(opts ...RunOption) (Results, error) {
				return Run(context.Background(), specRun(Timed, cfg, spec, ps), nil, opts...)
			}, every)
		})
		t.Run(spec.Name+"/functional", func(t *testing.T) {
			t.Parallel()
			checkRoundTrip(t, func(opts ...RunOption) (Results, error) {
				return Run(context.Background(), specRun(Functional, cfg, spec, ps), nil, opts...)
			}, ckptCadences[(i+1)%len(ckptCadences)])
		})
	}
}

func TestCheckpointResumeScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario sweep")
	}
	cfg := ckptConfig()
	for i, scn := range trace.Scenarios() {
		scn := scn
		ps := ckptVariants[i%len(ckptVariants)]
		every := ckptCadences[i%len(ckptCadences)]
		if i%2 == 0 {
			t.Run(scn.Name+"/timed", func(t *testing.T) {
				t.Parallel()
				checkRoundTrip(t, func(opts ...RunOption) (Results, error) {
					return Run(context.Background(), scnRun(Timed, cfg, scn, ps), nil, opts...)
				}, every)
			})
		} else {
			t.Run(scn.Name+"/functional", func(t *testing.T) {
				t.Parallel()
				checkRoundTrip(t, func(opts ...RunOption) (Results, error) {
					return Run(context.Background(), scnRun(Functional, cfg, scn, ps), nil, opts...)
				}, every)
			})
		}
	}
}

// TestCheckpointAllCadences pins one workload through every cadence on
// both drivers, including a cadence that lands inside a decoded frame
// and one inside a scenario phase.
func TestCheckpointAllCadences(t *testing.T) {
	cfg := ckptConfig()
	sp := spec(t, "oltp-db2")
	for _, every := range ckptCadences {
		every := every
		t.Run("timed", func(t *testing.T) {
			checkRoundTrip(t, func(opts ...RunOption) (Results, error) {
				return Run(context.Background(), specRun(Timed, cfg, sp, PrefSpec{Kind: STMS}), nil, opts...)
			}, every)
		})
		t.Run("functional", func(t *testing.T) {
			checkRoundTrip(t, func(opts ...RunOption) (Results, error) {
				return Run(context.Background(), specRun(Functional, cfg, sp, PrefSpec{Kind: STMS}), nil, opts...)
			}, every)
		})
	}
}

// TestCheckpointHaltAndFileResume simulates the scripted kill: run with
// a file destination and a halt after the second checkpoint, then
// resume from the file and compare against the uninterrupted run.
func TestCheckpointHaltAndFileResume(t *testing.T) {
	cfg := ckptConfig()
	sp := spec(t, "web-apache")
	ps := PrefSpec{Kind: STMS}
	base, err := Run(context.Background(), specRun(Timed, cfg, sp, ps), nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.stmsckpt")
	_, err = Run(context.Background(), specRun(Timed, cfg, sp, ps), nil, WithCheckpointEvery(5000, path), WithCheckpointHalt(2))
	if !errors.Is(err, ErrCheckpointed) {
		t.Fatalf("want ErrCheckpointed, got %v", err)
	}
	resumed, err := resumeFile(path)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !reflect.DeepEqual(base, resumed) {
		t.Fatalf("killed-and-resumed run diverged:\nbase    %+v\nresumed %+v", base, resumed)
	}
}

// TestCheckpointSignal covers the graceful-shutdown path: a closed
// signal channel flushes a final checkpoint and halts; the checkpoint
// resumes to the uninterrupted result.
func TestCheckpointSignal(t *testing.T) {
	cfg := ckptConfig()
	sp := spec(t, "dss-qry17")
	ps := PrefSpec{Kind: Ideal}
	base, err := Run(context.Background(), specRun(Timed, cfg, sp, ps), nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sig.stmsckpt")
	ch := make(chan struct{})
	close(ch)
	_, err = Run(context.Background(), specRun(Timed, cfg, sp, ps), nil, WithCheckpointEvery(0, path), WithCheckpointSignal(ch))
	if !errors.Is(err, ErrCheckpointed) {
		t.Fatalf("want ErrCheckpointed, got %v", err)
	}
	resumed, err := resumeFile(path)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !reflect.DeepEqual(base, resumed) {
		t.Fatalf("signal-checkpointed run diverged")
	}
}

// TestCheckpointTapeResume proves tape-backed runs checkpoint and
// resume with the caller-supplied tape.
func TestCheckpointTapeResume(t *testing.T) {
	cfg := ckptConfig()
	sp := spec(t, "oltp-oracle")
	ps := PrefSpec{Kind: STMS}
	total := cfg.WarmRecords + cfg.MeasureRecords
	tape := trace.NewTape(sp.Scaled(cfg.Scale), cfg.Seed, cfg.Cores, total)
	base, err := Run(context.Background(), tapeRun(Timed, cfg, tape, ps), nil)
	if err != nil {
		t.Fatal(err)
	}
	var ckpts [][]byte
	observed, err := Run(context.Background(), tapeRun(Timed, cfg, tape, ps), nil, WithCheckpointFunc(7000, func(data []byte) error {
		cp := make([]byte, len(data))
		copy(cp, data)
		ckpts = append(ckpts, cp)
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, observed) {
		t.Fatalf("checkpointing perturbed the tape run")
	}
	if len(ckpts) == 0 {
		t.Fatal("no checkpoints captured")
	}
	for _, k := range sampleIndices(len(ckpts)) {
		resumed, err := resumeRun(context.Background(), ckpts[k], tape, nil)
		if err != nil {
			t.Fatalf("resume %d: %v", k, err)
		}
		if !reflect.DeepEqual(base, resumed) {
			t.Fatalf("tape resume %d diverged", k)
		}
	}
	// A tape-backed checkpoint refuses the tapeless resume path.
	if _, err := resumeRun(context.Background(), ckpts[0], nil, nil); err == nil {
		t.Fatal("a tape-backed checkpoint resumed without its tape")
	}
}

// TestCheckpointRefusals: unsupported configurations error out up
// front instead of producing unrestorable checkpoints.
func TestCheckpointRefusals(t *testing.T) {
	cfg := ckptConfig()
	sp := spec(t, "web-apache")
	sink := WithCheckpointFunc(1000, func([]byte) error { return nil })

	if _, err := Run(context.Background(), specRun(Timed, cfg, sp, PrefSpec{Kind: TSE}), nil, sink); err == nil {
		t.Fatal("TSE run accepted a checkpoint request")
	}
	scfg := core.DefaultConfig(cfg.Cores).Scaled(cfg.Scale)
	scfg.Org = core.OrgDirectMapped
	if _, err := Run(context.Background(), specRun(Timed, cfg, sp, PrefSpec{Kind: STMS, STMSCfg: &scfg}), nil, sink); err == nil {
		t.Fatal("alternative index organization accepted a checkpoint request")
	}
	gens := make([]trace.Generator, cfg.Cores)
	lib := trace.NewLibrary(sp.Scaled(cfg.Scale), cfg.Seed)
	for i := range gens {
		gens[i] = &trace.Limit{Gen: trace.NewGenerator(lib, i, cfg.Seed), N: 1000}
	}
	ext := SourceRun{Spec: trace.Spec{Name: "ext"}, Sources: make([]trace.FrameSource, cfg.Cores)}
	for i := range gens {
		ext.Sources[i] = trace.AutoFrames(gens[i])
	}
	if _, err := Run(context.Background(), streamRun(Timed, cfg, ext, PrefSpec{Kind: None}), nil, sink); err == nil {
		t.Fatal("external-generator run accepted a checkpoint request")
	}
}

// TestCheckpointCorruptFile: a torn or bit-flipped checkpoint is
// rejected at open, never partially restored.
func TestCheckpointCorruptFile(t *testing.T) {
	cfg := ckptConfig()
	sp := spec(t, "web-zeus")
	path := filepath.Join(t.TempDir(), "c.stmsckpt")
	_, err := Run(context.Background(), specRun(Functional, cfg, sp, PrefSpec{Kind: None}), nil, WithCheckpointEvery(5000, path), WithCheckpointHalt(1))
	if !errors.Is(err, ErrCheckpointed) {
		t.Fatalf("want ErrCheckpointed, got %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flip := make([]byte, len(data))
	copy(flip, data)
	flip[len(flip)/2] ^= 0x40
	if _, err := resumeRun(context.Background(), flip, nil, nil); err == nil {
		t.Fatal("bit-flipped checkpoint restored")
	}
	if _, err := resumeRun(context.Background(), data[:len(data)-3], nil, nil); err == nil {
		t.Fatal("truncated checkpoint restored")
	}
	if _, err := resumeRun(context.Background(), data, nil, nil); err != nil {
		t.Fatalf("pristine checkpoint failed to restore: %v", err)
	}
}

// TestCheckpointDescMismatch: resuming a checkpoint into a run with a
// different configuration or variant fails fast.
func TestCheckpointDescMismatch(t *testing.T) {
	cfg := ckptConfig()
	sp := spec(t, "web-apache")
	var data []byte
	_, err := Run(context.Background(), specRun(Functional, cfg, sp, PrefSpec{Kind: None}), nil, WithCheckpointFunc(5000, func(d []byte) error {
		data = append([]byte(nil), d...)
		return nil
	}), WithCheckpointHalt(1))
	if !errors.Is(err, ErrCheckpointed) {
		t.Fatalf("want ErrCheckpointed, got %v", err)
	}
	if _, err := Run(context.Background(), specRun(Functional, cfg, sp, PrefSpec{Kind: Ideal}), nil, WithResume(data)); err == nil {
		t.Fatal("variant mismatch accepted")
	}
	other := cfg
	other.Seed++
	if _, err := Run(context.Background(), specRun(Functional, other, sp, PrefSpec{Kind: None}), nil, WithResume(data)); err == nil {
		t.Fatal("config mismatch accepted")
	}
	if _, err := Run(context.Background(), specRun(Timed, cfg, sp, PrefSpec{Kind: None}), nil, WithResume(data)); err == nil {
		t.Fatal("driver mismatch accepted")
	}
	d, err := PeekCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if d.Mode != "functional" || d.Source != "spec" || d.Spec == nil || d.Spec.Name != "web-apache" {
		t.Fatalf("descriptor mismatch: %+v", d)
	}
}

// TestCrossSubstrateResume: a checkpoint names its run by identity, not
// by trace substrate, so a spec run's checkpoint resumes over the tape
// of that spec and vice versa, and likewise a scenario and its tape —
// in both drivers, from early, mid-run (past the phase and warm-up
// boundaries) and late checkpoints, each bit-identical to the
// uninterrupted run.
func TestCrossSubstrateResume(t *testing.T) {
	cfg := ckptConfig()
	total := cfg.WarmRecords + cfg.MeasureRecords
	oltp := spec(t, "oltp-db2")
	const split = 3000 // per-core records in the scenario's first phase
	scn := trace.Sequence("split", trace.Phase{Name: "web", Records: split, Spec: spec(t, "web-apache")}, trace.Phase{Name: "oltp", Spec: oltp})
	specTape := trace.NewTape(oltp.Scaled(cfg.Scale), cfg.Seed, cfg.Cores, total)
	scnTape := trace.NewScenarioTape(scn.Scaled(cfg.Scale), cfg.Seed, cfg.Cores, total)
	ctx := context.Background()
	for _, mode := range []Mode{Timed, Functional} {
		for _, tc := range []struct {
			name     string
			from, to Source
		}{
			{"spec-to-tape", Source{Spec: &oltp}, Source{Tape: specTape}},
			{"tape-to-spec", Source{Tape: specTape}, Source{Spec: &oltp}},
			{"scenario-to-tape", Source{Scenario: &scn}, Source{Tape: scnTape}},
			{"tape-to-scenario", Source{Tape: scnTape}, Source{Scenario: &scn}},
		} {
			from := RunSpec{Mode: mode, Config: cfg, Source: tc.from, Pref: PrefSpec{Kind: STMS}}
			to := from
			to.Source = tc.to
			want, err := Run(ctx, to, nil)
			if err != nil {
				t.Fatal(err)
			}
			var ckpts [][]byte
			if _, err := Run(ctx, from, nil, WithCheckpointFunc(7000, func(data []byte) error {
				ckpts = append(ckpts, append([]byte(nil), data...))
				return nil
			})); err != nil {
				t.Fatal(err)
			}
			picks := sampleIndices(len(ckpts))
			if len(picks) < 3 {
				t.Fatalf("%s/%s: %d checkpoints, want at least 3", mode, tc.name, len(ckpts))
			}
			for _, k := range picks {
				d, err := PeekCheckpoint(ckpts[k])
				if err != nil {
					t.Fatal(err)
				}
				if k == picks[1] && d.Records <= max(split, cfg.WarmRecords)*uint64(cfg.Cores) {
					t.Fatalf("%s/%s: mid-run checkpoint at %d records is not past the boundaries", mode, tc.name, d.Records)
				}
				got, err := Run(ctx, to, nil, WithResume(ckpts[k]))
				if err != nil {
					t.Fatalf("%s/%s: resume at %d records: %v", mode, tc.name, d.Records, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s/%s: resume at %d records diverged from the uninterrupted run", mode, tc.name, d.Records)
				}
			}
		}
	}
}

// resumeRun resumes sealed checkpoint bytes into the run their
// descriptor names; tape serves tape-backed checkpoints.
func resumeRun(ctx context.Context, data []byte, tape *trace.Tape, progress Progress, opts ...RunOption) (Results, error) {
	d, err := PeekCheckpoint(data)
	if err != nil {
		return Results{}, err
	}
	rs, err := d.RunSpec(tape)
	if err != nil {
		return Results{}, err
	}
	return Run(ctx, rs, progress, append(opts, WithResume(data))...)
}

// resumeFile resumes the checkpoint file at path.
func resumeFile(path string) (Results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Results{}, err
	}
	return resumeRun(context.Background(), data, nil, nil)
}

// TestResumeIdentityMismatch: a checkpoint restores only into the run
// that wrote it. Each case resumes a valid checkpoint into a run that
// differs in exactly one part of its identity — another workload,
// another sampling probability, another workload's tape — which would
// restore cleanly and then produce wrong results; every one must fail.
func TestResumeIdentityMismatch(t *testing.T) {
	cfg := ckptConfig()
	web, oltp := spec(t, "web-apache"), spec(t, "oltp-db2")
	perCore := cfg.WarmRecords + cfg.MeasureRecords
	webTape := trace.NewTape(web.Scaled(cfg.Scale), cfg.Seed, cfg.Cores, perCore)
	oltpTape := trace.NewTape(oltp.Scaled(cfg.Scale), cfg.Seed, cfg.Cores, perCore)
	p125 := PrefSpec{Kind: STMS, SampleProb: 0.125}
	p5 := PrefSpec{Kind: STMS, SampleProb: 0.5}
	smp := Sampling{Windows: 2}
	// Two scenarios named alike, sharing their first phase and their
	// EffectiveSpec summary (the second phases have equal dirty
	// fractions), differing in the second phase's workload. The
	// checkpoint below (3000 records in, 750 per core) lies past the
	// 250-record phase boundary.
	em3d := spec(t, "sci-em3d")
	em3d.DirtyFrac = oltp.DirtyFrac
	probeTape := func(second trace.Spec) *trace.Tape {
		scn := trace.Sequence("probe", trace.Phase{Records: 250, Spec: web}, trace.Phase{Spec: second})
		return trace.NewScenarioTape(scn.Scaled(cfg.Scale), cfg.Seed, cfg.Cores, perCore)
	}
	probeA, probeB := probeTape(oltp), probeTape(em3d)
	if probeA.Spec() != probeB.Spec() {
		t.Fatal("probe scenarios should share their EffectiveSpec")
	}
	ctx := context.Background()
	capture := func(run func(...RunOption) error) []byte {
		t.Helper()
		var data []byte
		err := run(WithCheckpointFunc(3000, func(d []byte) error {
			data = append([]byte(nil), d...)
			return nil
		}), WithCheckpointHalt(1))
		if !errors.Is(err, ErrCheckpointed) {
			t.Fatalf("want ErrCheckpointed, got %v", err)
		}
		return data
	}
	exact := func(rs RunSpec) []byte {
		return capture(func(opts ...RunOption) error { _, err := Run(ctx, rs, nil, opts...); return err })
	}
	sampled := func(rs RunSpec) []byte {
		return capture(func(opts ...RunOption) error { _, err := RunSampled(ctx, rs, smp, nil, opts...); return err })
	}
	for _, tc := range []struct {
		name   string
		ckpt   []byte
		resume func(data []byte) error
	}{
		{"other workload", exact(specRun(Timed, cfg, web, p125)), func(data []byte) error {
			_, err := Run(ctx, specRun(Timed, cfg, oltp, p125), nil, WithResume(data))
			return err
		}},
		{"other sampling probability", exact(specRun(Timed, cfg, web, p125)), func(data []byte) error {
			_, err := Run(ctx, specRun(Timed, cfg, web, p5), nil, WithResume(data))
			return err
		}},
		{"other workload's tape", exact(tapeRun(Timed, cfg, webTape, p125)), func(data []byte) error {
			_, err := resumeRun(ctx, data, oltpTape, nil)
			return err
		}},
		{"other scenario's tape, past the phase boundary", exact(tapeRun(Timed, cfg, probeA, p125)), func(data []byte) error {
			_, err := resumeRun(ctx, data, probeB, nil)
			return err
		}},
		{"sampled, other workload", sampled(specRun(Timed, cfg, web, p125)), func(data []byte) error {
			_, err := RunSampled(ctx, specRun(Timed, cfg, oltp, p125), smp, nil, WithResume(data))
			return err
		}},
		{"sampled, other sampling probability", sampled(specRun(Timed, cfg, web, p125)), func(data []byte) error {
			_, err := RunSampled(ctx, specRun(Timed, cfg, web, p5), smp, nil, WithResume(data))
			return err
		}},
	} {
		if err := tc.resume(tc.ckpt); err == nil {
			t.Errorf("%s: mismatched checkpoint resumed without error", tc.name)
		}
	}
}
