package sim

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"stms/internal/trace"
)

// deadProducerSource builds a FrameSource over a flat trace file whose
// header promises more records than the file holds — the shape a run
// sees when its producer dies mid-stream.
func deadProducerSource(t *testing.T, cfg Config, scaled trace.Spec) trace.FrameSource {
	t.Helper()
	total := cfg.WarmRecords + cfg.MeasureRecords
	lib := trace.NewLibrary(scaled, cfg.Seed)
	recs := trace.Capture(trace.NewGenerator(lib, 0, cfg.Seed), int(total))
	var buf bytes.Buffer
	if err := trace.WriteAll(&buf, recs); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data = data[:len(data)-len(data)/3] // the producer dies ~2/3 through
	rd, err := trace.NewFileReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return trace.PipelinedFrames(rd)
}

// TestSourceDeathIsAnError pins the contract that a FrameSource whose
// producer fails mid-run surfaces that failure from the driver — a
// truncated trace must never pass for a short-but-clean result.
func TestSourceDeathIsAnError(t *testing.T) {
	cfg := testConfig()
	cfg.Cores = 1
	scaled := spec(t, "web-apache").Scaled(cfg.Scale)
	run := func() SourceRun {
		return SourceRun{
			Spec:    scaled,
			Sources: []trace.FrameSource{deadProducerSource(t, cfg, scaled)},
			PerCore: cfg.WarmRecords + cfg.MeasureRecords,
		}
	}
	t.Run("timed", func(t *testing.T) {
		_, err := Run(context.Background(), streamRun(Timed, cfg, run(), PrefSpec{Kind: None}), nil)
		if err == nil || !strings.Contains(err.Error(), "trace source failed mid-run") {
			t.Fatalf("timed driver swallowed a dead producer: err=%v", err)
		}
	})
	t.Run("functional", func(t *testing.T) {
		_, err := Run(context.Background(), streamRun(Functional, cfg, run(), PrefSpec{Kind: None}), nil)
		if err == nil || !strings.Contains(err.Error(), "trace source failed mid-run") {
			t.Fatalf("functional driver swallowed a dead producer: err=%v", err)
		}
	})
}
