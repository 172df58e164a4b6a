package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"sync"

	"stms/internal/sim"
	"stms/internal/trace"
)

// expectedJSON holds the digests of every checked result at the full
// size, for the default seed, the held-out seed and the seeds the
// benchmark was tuned on, recorded with -gen-expected through the
// direct sim entry points. Runs through Lab, remote workers or the
// stream must reproduce them exactly.
//
//go:embed expected.json
var expectedJSON []byte

type expectedDoc struct {
	Note  string                       `json:"note"`
	Seeds map[string]map[string]string `json:"seeds"` // seed → cell id → digest
}

// digestOf hashes a result's JSON encoding, which carries every field
// losslessly (the distributed lab ships Results the same way). Results
// hold no wall-clock fields, so equal runs hash equal.
func digestOf(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// expectedFor returns the digest every cell of w must produce at seed,
// from expected.json when the seed was recorded there.
func expectedFor(ctx context.Context, w *workload, e *env) (map[string]string, error) {
	cells := w.cells(e.size)
	if e.size.full {
		var doc expectedDoc
		if err := json.Unmarshal(expectedJSON, &doc); err != nil {
			return nil, fmt.Errorf("expected.json: %w", err)
		}
		if table, ok := doc.Seeds[strconv.FormatUint(e.seed, 10)]; ok {
			want := map[string]string{}
			for _, c := range cells {
				d, ok := table[c.id()]
				if !ok {
					return nil, fmt.Errorf("expected.json: seed %d has no digest for %s", e.seed, c.id())
				}
				want[c.id()] = d
			}
			return want, nil
		}
	}
	// An unrecorded seed: simulate the cells of the first trace
	// workload directly now; the first iteration's digests of the others
	// become what later iterations must repeat.
	var spot []cellSpec
	for _, c := range cells {
		if c.workload == cells[0].workload {
			spot = append(spot, c)
		}
	}
	fmt.Fprintf(os.Stderr, "seed %d is not in expected.json: %d of %d cells checked against direct runs, the rest for repeatability\n",
		e.seed, len(spot), len(cells))
	return reference(ctx, e, spot)
}

// reference runs cells through the direct sim entry points, nproc at a
// time, one tape per trace identity.
func reference(ctx context.Context, e *env, cells []cellSpec) (map[string]string, error) {
	out := map[string]string{}
	var mu sync.Mutex
	var firstErr error
	sem := make(chan struct{}, e.par)
	var wg sync.WaitGroup
	for _, t := range uniqueTapes(cells) {
		tape, err := e.build(t)
		if err != nil {
			return nil, err
		}
		for _, c := range cells {
			if c.tape() != t {
				continue
			}
			sem <- struct{}{}
			wg.Add(1)
			go func() {
				defer func() { <-sem; wg.Done() }()
				d, _, err := runDirect(ctx, e, c, tape)
				mu.Lock()
				defer mu.Unlock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("%s: %w", c.id(), err)
				}
				out[c.id()] = d
			}()
		}
		wg.Wait() // one tape in memory at a time
	}
	return out, firstErr
}

func uniqueTapes(cells []cellSpec) []tapeID {
	var ids []tapeID
	seen := map[tapeID]bool{}
	for _, c := range cells {
		if t := c.tape(); !seen[t] {
			seen[t] = true
			ids = append(ids, t)
		}
	}
	return ids
}

// runDirect simulates one cell through the sim package's tape entry
// points and returns its digest and plain Results.
func runDirect(ctx context.Context, e *env, c cellSpec, t *trace.Tape) (string, *sim.Results, error) {
	cfg := e.config(c.warm, c.measure)
	switch c.mode {
	case "timed":
		res, err := sim.RunTimedTapeCtx(ctx, cfg, t, c.v.ps, nil)
		return digestOf(&res), &res, err
	case "functional":
		res, err := sim.RunFunctionalTapeCtx(ctx, cfg, t, c.v.ps, nil)
		return digestOf(&res), &res, err
	case "sampled":
		sr, err := sim.RunSampledTapeCtx(ctx, cfg, t, c.v.ps, sim.Sampling{Windows: sampleWindows}, nil)
		return digestOf(&sr), &sr.Results, err
	}
	return "", nil, fmt.Errorf("unknown mode %q", c.mode)
}

// genExpected records expected.json for the given seeds at the full
// size.
func genExpected(ctx context.Context, path, seedList string, seeds []uint64, par int) error {
	doc := expectedDoc{
		Note:  "sha256/128 of the JSON encoding of each cell's sim.Results (sim.SampledResults for sampled cells), full benchmark size; regenerate with: bash perfbench/run.sh --gen-expected " + seedList,
		Seeds: map[string]map[string]string{},
	}
	for _, seed := range seeds {
		e := &env{seed: seed, size: fullSize(), par: par}
		var cells []cellSpec
		seen := map[string]bool{}
		for _, w := range workloads {
			for _, c := range w.cells(e.size) {
				if !seen[c.id()] {
					seen[c.id()] = true
					cells = append(cells, c)
				}
			}
		}
		table, err := reference(ctx, e, cells)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		doc.Seeds[strconv.FormatUint(seed, 10)] = table
		fmt.Fprintf(os.Stderr, "seed %d: %d cells\n", seed, len(table))
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
