package sim

import (
	"reflect"
	"testing"

	"stms/internal/core"
	"stms/internal/prefetch"
	"stms/internal/trace"
)

// flipLeaves visits every exported leaf field reachable from v — through
// nested structs and non-nil struct pointers — with the field changed,
// restoring it after the visit.
func flipLeaves(t *testing.T, v reflect.Value, path string, visit func(path string)) {
	t.Helper()
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			flipLeaves(t, v.Elem(), path, visit)
		}
		return
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				flipLeaves(t, v.Field(i), path+"."+f.Name, visit)
			}
		}
		return
	}
	old := reflect.New(v.Type()).Elem()
	old.Set(v)
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float()/2 + 0.125)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "x")
	default:
		t.Fatalf("%s: no flip for a %s leaf", path, v.Kind())
	}
	visit(path)
	v.Set(old)
}

// TestRunKeyCoversIdentity: the run key changes with every input that
// can change a result — each exported leaf of Config, of PrefSpec
// (through its STMSCfg and Engine pointers), of the sampling
// parameters, the mode and the workload — and with nothing else: a
// Spec source and its own Tape share a key. The tape address under it
// separates seed, cores, budget and scenario identity.
func TestRunKeyCoversIdentity(t *testing.T) {
	cfg := ckptConfig()
	web := spec(t, "web-apache")
	scfg := core.DefaultConfig(cfg.Cores).Scaled(cfg.Scale)
	eng := prefetch.DefaultEngineConfig(cfg.Cores)
	rs := RunSpec{Mode: Timed, Config: cfg, Source: Source{Spec: &web},
		Pref: PrefSpec{Kind: STMS, MaxDepth: 8, HistoryEntries: 64, IndexEntries: 64, STMSCfg: &scfg, SampleProb: 0.5, Engine: &eng}}
	smp := Sampling{Windows: 3, Warmup: 100, FuncWarmup: 200, Confidence: 0.9}
	key := func(rs RunSpec) string {
		t.Helper()
		k, err := rs.Key()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	sampledKey := func(rs RunSpec, smp Sampling) string {
		t.Helper()
		k, err := rs.SampledKey(smp)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	k0, s0 := key(rs), sampledKey(rs, smp)
	if len(k0) != 64 || key(rs) != k0 {
		t.Fatalf("key %q is not a deterministic sha256 hex digest", k0)
	}
	if s0 == k0 {
		t.Fatal("a sampled run shares the exact run's key")
	}

	flipLeaves(t, reflect.ValueOf(&rs.Config).Elem(), "Config", func(path string) {
		if key(rs) == k0 {
			t.Errorf("%s not in the run key", path)
		}
	})
	flipLeaves(t, reflect.ValueOf(&rs.Pref).Elem(), "Pref", func(path string) {
		if key(rs) == k0 {
			t.Errorf("%s not in the run key", path)
		}
	})
	flipLeaves(t, reflect.ValueOf(&smp).Elem(), "Sampling", func(path string) {
		if sampledKey(rs, smp) == s0 {
			t.Errorf("%s not in the sampled run key", path)
		}
	})
	if key(rs) != k0 || sampledKey(rs, smp) != s0 {
		t.Fatal("flips were not restored")
	}

	// Sampling keys on the parameters RunSampled actually uses.
	if sampledKey(rs, Sampling{Windows: 3}) != sampledKey(rs, Sampling{Windows: 3}.normalized(cfg)) {
		t.Error("sampled key not normalized")
	}

	// Mode and workload.
	other := rs
	other.Mode = Functional
	if key(other) == k0 {
		t.Error("mode not in the run key")
	}
	dirty := web
	dirty.DirtyFrac += 0.01
	other = rs
	other.Source = Source{Spec: &dirty}
	if key(other) == k0 {
		t.Error("workload spec not in the run key")
	}
	scn := trace.Stationary("w", web)
	other.Source = Source{Scenario: &scn}
	if key(other) == k0 {
		t.Error("a scenario run shares its spec's key")
	}

	// Substrate is not identity: a source and its own tape share keys.
	total := cfg.WarmRecords + cfg.MeasureRecords
	other.Source = Source{Tape: trace.NewTape(web.Scaled(cfg.Scale), cfg.Seed, cfg.Cores, total)}
	if key(other) != k0 || sampledKey(other, smp) != s0 {
		t.Error("a spec run and its tape have different keys")
	}
	// A longer spec tape serves the run too, under the run's budget.
	other.Source = Source{Tape: trace.NewTape(web.Scaled(cfg.Scale), cfg.Seed, cfg.Cores, total+100)}
	if key(other) != k0 {
		t.Error("a longer tape of the same spec changes the key")
	}
	scnRS := rs
	scnRS.Source = Source{Scenario: &scn}
	other.Source = Source{Tape: trace.NewScenarioTape(scn.Scaled(cfg.Scale), cfg.Seed, cfg.Cores, total)}
	if key(other) != key(scnRS) {
		t.Error("a scenario run and its tape have different keys")
	}
	other.Source = Source{Stream: &SourceRun{}}
	if _, err := other.Key(); err == nil {
		t.Error("a stream source was given a key")
	}

	// The tape address separates every trace-identity input.
	scaled := web.Scaled(cfg.Scale)
	base := trace.TapeKey(scaled, "", 1, 4, 1000)
	for name, k := range map[string]string{
		"seed":     trace.TapeKey(scaled, "", 2, 4, 1000),
		"cores":    trace.TapeKey(scaled, "", 1, 2, 1000),
		"budget":   trace.TapeKey(scaled, "", 1, 4, 2000),
		"scenario": trace.TapeKey(trace.Spec{}, scn.Scaled(cfg.Scale).Key(), 1, 4, 1000),
	} {
		if k == base {
			t.Errorf("%s not in the tape address", name)
		}
	}
}
