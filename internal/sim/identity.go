package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"stms/internal/trace"
)

// Run identity. A run's result is a pure function of its mode, system
// configuration, complete prefetcher spec and trace, and the trace is a
// pure function of its tape address (trace.TapeKey). RunSpec.Key hashes
// exactly those, so every "is this the same run?" — the lab's memo and
// manifest, the distributed checkpoint address, every resume check —
// compares one string. Spec, Scenario and Tape sources of one trace
// share a key; Stream sources have none (their records cannot be
// re-derived).

// runDoc is RunSpec's canonical JSON encoding. The portable form (a
// distributed job's run) names the workload by Spec or Scenario; the
// identity form hashed by Key names it by tape address, plus the
// normalized Sampling of a sampled run. A checkpoint's descriptor
// carries the portable form — the tape address for a Tape run — with
// the Sampling of a sampled run.
type runDoc struct {
	Mode     string          `json:"mode"`
	Config   Config          `json:"config"`
	Pref     PrefSpec        `json:"pref"`
	Spec     *trace.Spec     `json:"spec,omitempty"`
	Scenario json.RawMessage `json:"scenario,omitempty"`
	Tape     string          `json:"tape,omitempty"`
	Sampling *Sampling       `json:"sampling,omitempty"`
}

// check verifies exactly one source field is set.
func (s Source) check() error {
	set := 0
	for _, ok := range []bool{s.Spec != nil, s.Scenario != nil, s.Tape != nil, s.Stream != nil} {
		if ok {
			set++
		}
	}
	if set != 1 {
		return fmt.Errorf("sim: a run source sets exactly one of Spec, Scenario, Tape and Stream (%d set)", set)
	}
	return nil
}

// TapeRecipe resolves the run's trace to its tape address and the build
// that materializes it: the scaled spec or scenario at the config's
// seed and core count, warm + measure records per core. Every tape a
// lab session or worker builds comes from here, so coordinator and
// worker agree on the address. A Tape source resolves to the address
// of its own trace at this run's budget and builds to itself; a Stream
// source has no address.
func (rs RunSpec) TapeRecipe() (key string, build func() *trace.Tape, err error) {
	s, cfg := rs.Source, rs.Config
	if err := s.check(); err != nil {
		return "", nil, err
	}
	seed, cores, perCore := cfg.Seed, cfg.Cores, cfg.WarmRecords+cfg.MeasureRecords
	var spec trace.Spec // zero for scenarios, which scnKey names instead
	scnKey := ""
	switch {
	case s.Spec != nil:
		spec = s.Spec.Scaled(cfg.Scale)
		build = func() *trace.Tape { return trace.NewTape(spec, seed, cores, perCore) }
	case s.Scenario != nil:
		sc := s.Scenario.Scaled(cfg.Scale)
		scnKey = sc.Key()
		build = func() *trace.Tape { return trace.NewScenarioTape(sc, seed, cores, perCore) }
	case s.Tape != nil:
		if spec = s.Tape.Spec(); s.Tape.Scenario() != nil {
			spec, scnKey = trace.Spec{}, s.Tape.Scenario().Key()
		}
		build = func() *trace.Tape { return s.Tape }
	default:
		return "", nil, fmt.Errorf("sim: a stream source has no tape address (its records cannot be re-derived)")
	}
	return trace.TapeKey(spec, scnKey, seed, cores, perCore), build, nil
}

// identity is the one run-identity function: the hex sha256 of the
// run's identity form, sampled with smp when non-nil.
func identity(rs RunSpec, smp *Sampling) (string, error) {
	tape, _, err := rs.TapeRecipe()
	if err != nil {
		return "", err
	}
	b, err := json.Marshal(runDoc{Mode: rs.Mode.String(), Config: rs.Config, Pref: rs.Pref, Tape: tape, Sampling: smp})
	if err != nil {
		return "", fmt.Errorf("sim: encoding run identity: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Key returns the run's identity: equal keys mean bit-identical
// Results. It names the run's checkpoints and memoizes it in the lab.
func (rs RunSpec) Key() (string, error) { return identity(rs, nil) }

// SampledKey returns the identity of the run sampled with smp (after
// the defaults RunSampled applies), distinct from the exact run's Key:
// an estimate is never served where an exact result was asked for.
func (rs RunSpec) SampledKey(smp Sampling) (string, error) {
	smp = smp.normalized(rs.Config)
	return identity(rs, &smp)
}

// doc returns the run's canonical document: the portable form (the
// scenario as its own versioned document) for a Spec or Scenario run,
// the tape address for a Tape run. A Stream run has neither.
func (rs RunSpec) doc() (runDoc, error) {
	if err := rs.Source.check(); err != nil {
		return runDoc{}, err
	}
	doc := runDoc{Mode: rs.Mode.String(), Config: rs.Config, Pref: rs.Pref, Spec: rs.Source.Spec}
	var err error
	switch s := rs.Source; {
	case s.Spec != nil:
	case s.Scenario != nil:
		doc.Scenario, err = json.Marshal(*s.Scenario)
	default:
		doc.Tape, _, err = rs.TapeRecipe()
	}
	return doc, err
}

// runSpec rebuilds the run a document describes: the one decoder of
// run documents, for jobs and checkpoints alike. A tape-addressed
// document needs its tape, and refuses any tape but the one it names.
func (doc runDoc) runSpec(tape *trace.Tape) (RunSpec, error) {
	mode, err := parseMode(doc.Mode)
	if err != nil {
		return RunSpec{}, err
	}
	rs := RunSpec{Mode: mode, Config: doc.Config, Pref: doc.Pref, Source: Source{Spec: doc.Spec}}
	set := 0
	for _, ok := range []bool{doc.Spec != nil, len(doc.Scenario) > 0, doc.Tape != ""} {
		if ok {
			set++
		}
	}
	switch {
	case set != 1:
		return RunSpec{}, fmt.Errorf("sim: a run document names exactly one of a spec, a scenario and a tape (%d named)", set)
	case len(doc.Scenario) > 0:
		scn, err := trace.ParseScenario(bytes.NewReader(doc.Scenario))
		if err != nil {
			return RunSpec{}, err
		}
		rs.Source.Scenario = &scn
	case doc.Tape != "" && tape == nil:
		return RunSpec{}, fmt.Errorf("sim: the run is tape-backed; rebuilding it needs its tape %.12s…", doc.Tape)
	case doc.Tape != "":
		rs.Source.Tape = tape
		if key, _, err := rs.TapeRecipe(); err != nil || key != doc.Tape {
			return RunSpec{}, fmt.Errorf("sim: tape %.12s… is not the run's tape %.12s…", key, doc.Tape)
		}
	}
	return rs, nil
}

// desc returns the checkpoint descriptor template of the run, sampled
// with smp when non-nil.
func (rs RunSpec) desc(smp *Sampling) (CheckpointDesc, error) {
	key, err := identity(rs, smp)
	if err != nil {
		return CheckpointDesc{}, err
	}
	doc, err := rs.doc()
	doc.Sampling = smp
	return CheckpointDesc{Key: key, runDoc: doc}, err
}

// MarshalJSON encodes a Spec or Scenario run in its portable form.
// Tape and Stream runs do not carry their records and have no portable
// form.
func (rs RunSpec) MarshalJSON() ([]byte, error) {
	doc, err := rs.doc()
	switch {
	case err != nil:
		return nil, err
	case doc.Tape != "":
		return nil, fmt.Errorf("sim: only spec and scenario runs have a portable encoding")
	}
	return json.Marshal(doc)
}

// UnmarshalJSON decodes a portable run: a known mode and exactly one of
// spec and scenario, the scenario validated as ParseScenario does.
func (rs *RunSpec) UnmarshalJSON(b []byte) error {
	var doc runDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return err
	}
	out, err := doc.runSpec(nil)
	if err != nil {
		return err
	}
	*rs = out
	return nil
}
