package lab

import (
	"context"
	"reflect"
	"testing"

	"stms/internal/sim"
	"stms/internal/trace"
)

func scenarioLab(t *testing.T, opts ...Option) *Lab {
	t.Helper()
	l, err := New(append([]Option{
		WithScale(0.0625), WithSeed(42), WithWindows(1500, 3000),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestScenarioMatrixSharesTapes runs scenario rows through a matrix and
// checks that variant columns replay one shared scenario tape per row,
// exactly like stationary rows do — and that the results match
// sequential live scenario runs bit for bit.
func TestScenarioMatrixSharesTapes(t *testing.T) {
	l := scenarioLab(t)
	scns := []trace.Scenario{}
	for _, name := range []string{"phase-flip", "migratory-handoff"} {
		scn, err := trace.ScenarioByName(name)
		if err != nil {
			t.Fatal(err)
		}
		scns = append(scns, scn)
	}
	prefs := []sim.PrefSpec{{Kind: sim.None}, {Kind: sim.STMS, SampleProb: 0.125}}
	m, err := l.Run(context.Background(), l.PlanScenarios(scns, prefs))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Complete() {
		t.Fatal("matrix has empty cells")
	}
	ts := l.TapeStats()
	if ts.Builds != uint64(len(scns)) {
		t.Fatalf("built %d tapes for %d scenario rows", ts.Builds, len(scns))
	}
	if ts.Hits == 0 {
		t.Fatal("variant columns never hit the shared scenario tape")
	}

	cfg := l.BaseConfig()
	for row, name := range m.Workloads {
		if name != scns[row].Name {
			t.Fatalf("row %d label %q, want %q", row, name, scns[row].Name)
		}
		for col := range m.Labels {
			got := m.At(row, col).Res
			want, err := sim.Run(context.Background(), sim.RunSpec{Mode: sim.Timed, Config: cfg, Source: sim.Source{Scenario: &scns[row]}, Pref: prefs[col]}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(*got, want) {
				t.Fatalf("cell %s/%s differs from sequential live scenario run", name, m.Labels[col])
			}
			if len(got.Phases) == 0 {
				t.Fatalf("cell %s/%s carries no phase windows", name, m.Labels[col])
			}
		}
	}
}

// TestPlanMixesSpecAndScenarioRows: Lab.Plan resolves workload and
// scenario names in one matrix, and memoizes scenario cells across
// plans.
func TestPlanMixesSpecAndScenarioRows(t *testing.T) {
	started := 0
	l := scenarioLab(t, WithProgress(func(ev ResultEvent) {
		if ev.Kind == CellStarted {
			started++
		}
	}))
	prefs := []sim.PrefSpec{{Kind: sim.STMS, SampleProb: 0.125}}
	plan := l.Plan([]string{"web-apache", "phase-flip"}, prefs)
	if err := plan.Err(); err != nil {
		t.Fatal(err)
	}
	if plan.Cells[0].Scenario != nil || plan.Cells[1].Scenario == nil {
		t.Fatal("rows resolved to the wrong workload kinds")
	}
	m, err := l.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Complete() || started != 2 {
		t.Fatalf("first run: complete=%v started=%d", m.Complete(), started)
	}
	if res := m.At(0, 0).Res; len(res.Phases) != 0 {
		t.Fatal("stationary row grew phase windows")
	}
	if res := m.At(1, 0).Res; len(res.Phases) != 3 {
		t.Fatalf("scenario row has %d phase windows, want 3", len(res.Phases))
	}

	// Memoized rerun: no new cells, identical results.
	m2, err := l.Run(context.Background(), l.Plan([]string{"web-apache", "phase-flip"}, prefs))
	if err != nil {
		t.Fatal(err)
	}
	if started != 2 {
		t.Fatalf("memoized rerun re-simulated (%d cells started)", started)
	}
	if !reflect.DeepEqual(m.At(1, 0).Res, m2.At(1, 0).Res) {
		t.Fatal("memoized scenario result differs")
	}

	// Unknown names report both name spaces.
	bad := l.Plan([]string{"no-such-thing"}, prefs)
	if bad.Err() == nil {
		t.Fatal("plan accepted an unknown name")
	}
}

// TestScenarioTapeCacheDisabled: with tapes off, scenario cells run the
// live path and still produce identical results.
func TestScenarioTapeCacheDisabled(t *testing.T) {
	with := scenarioLab(t)
	without := scenarioLab(t, WithTapeCache(0))
	prefs := []sim.PrefSpec{{Kind: sim.STMS, SampleProb: 0.125}}
	row := []string{"stream-decay"}
	ma, err := with.Run(context.Background(), with.Plan(row, prefs))
	if err != nil {
		t.Fatal(err)
	}
	mb, err := without.Run(context.Background(), without.Plan(row, prefs))
	if err != nil {
		t.Fatal(err)
	}
	if ts := without.TapeStats(); ts.Builds != 0 {
		t.Fatalf("disabled tape cache built %d tapes", ts.Builds)
	}
	if !reflect.DeepEqual(ma.At(0, 0).Res, mb.At(0, 0).Res) {
		t.Fatal("tape-cached and live scenario results differ")
	}
}

// TestScenarioFunctionalMode: scenario rows run on the functional
// driver too, with phase windows and zero timing.
func TestScenarioFunctionalMode(t *testing.T) {
	l := scenarioLab(t)
	m, err := l.Run(context.Background(), l.Plan(
		[]string{"scan-storm"},
		[]sim.PrefSpec{{Kind: sim.Ideal}},
		InMode(Functional),
	))
	if err != nil {
		t.Fatal(err)
	}
	res := m.At(0, 0).Res
	if res.IPC != 0 || res.ElapsedCycles != 0 {
		t.Fatal("functional scenario produced timing numbers")
	}
	if len(res.Phases) != 3 {
		t.Fatalf("functional scenario has %d phase windows, want 3", len(res.Phases))
	}
}
