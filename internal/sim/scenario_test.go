package sim

import (
	"reflect"
	"testing"

	"stms/internal/trace"
)

// scenarioTestConfig returns a small, fast configuration for scenario
// runs. warm = 0 makes the measurement fallback report whole-run
// numbers, so Results totals are directly comparable to the whole-run
// phase windows.
func scenarioTestConfig(warm, measure uint64) Config {
	cfg := DefaultConfig()
	cfg.Scale = 0.0625
	cfg.Seed = 42
	cfg.WarmRecords = warm
	cfg.MeasureRecords = measure
	return cfg
}

func testScenario(t *testing.T, name string) trace.Scenario {
	t.Helper()
	scn, err := trace.ScenarioByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return scn
}

// TestPhaseWindowsSumToTotals asserts the accounting identity: the
// per-phase windows partition the whole run, so their fields sum
// exactly to the run totals, in both drivers.
func TestPhaseWindowsSumToTotals(t *testing.T) {
	cfg := scenarioTestConfig(0, 6000)
	scn := testScenario(t, "phase-flip")
	ps := PrefSpec{Kind: STMS, SampleProb: 0.125}

	timedRes, err := Run(nil, scnRun(Timed, cfg, scn, ps), nil)
	if err != nil {
		t.Fatal(err)
	}
	funcRes, err := Run(nil, scnRun(Functional, cfg, scn, ps), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []*Results{&timedRes, &funcRes} {
		if len(res.Phases) != 3 {
			t.Fatalf("%s: %d phase windows, want 3", res.Workload, len(res.Phases))
		}
		var sum PhaseWindow
		for _, w := range res.Phases {
			sum.Records += w.Records
			sum.L1Hits += w.L1Hits
			sum.L2Hits += w.L2Hits
			sum.CoveredFull += w.CoveredFull
			sum.CoveredPartial += w.CoveredPartial
			sum.Uncovered += w.Uncovered
			sum.ElapsedCycles += w.ElapsedCycles
			sum.Instrs += w.Instrs
		}
		// With warm = 0 the Results totals are whole-run, like the
		// phase windows.
		if sum.Records != res.Records || sum.L1Hits != res.L1Hits || sum.L2Hits != res.L2Hits {
			t.Fatalf("reference sums diverge: phases %+v vs totals %+v", sum, res)
		}
		if sum.CoveredFull != res.CoveredFull || sum.CoveredPartial != res.CoveredPartial ||
			sum.Uncovered != res.Uncovered {
			t.Fatalf("coverage sums diverge: phases %+v vs totals %+v", sum, res)
		}
		if sum.ElapsedCycles != res.ElapsedCycles || sum.Instrs != res.Instrs {
			t.Fatalf("timing sums diverge: phases %+v vs totals (%d cycles, %d instrs)",
				sum, res.ElapsedCycles, res.Instrs)
		}
	}
	if funcRes.Phases[0].ElapsedCycles != 0 || funcRes.Phases[0].IPC != 0 {
		t.Fatal("functional phase windows carry timing numbers")
	}
}

// TestScenarioTapeMatchesLiveResults is the sim-level half of the
// golden equality: replaying a scenario tape must produce Results
// bit-identical to live scenario generation, for a multi-phase and a
// mixed-core scenario, on both drivers.
func TestScenarioTapeMatchesLiveResults(t *testing.T) {
	cfg := scenarioTestConfig(1500, 3000)
	ps := PrefSpec{Kind: STMS, SampleProb: 0.125}
	for _, name := range []string{"phase-flip", "mix-commercial"} {
		scn := testScenario(t, name)
		scaled := scn.Scaled(cfg.Scale)
		tape := trace.NewScenarioTape(scaled, cfg.Seed, cfg.Cores, cfg.WarmRecords+cfg.MeasureRecords)

		live, err := Run(nil, scnRun(Timed, cfg, scn, ps), nil)
		if err != nil {
			t.Fatal(err)
		}
		replay, err := Run(nil, tapeRun(Timed, cfg, tape, ps), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(live, replay) {
			t.Fatalf("%s: timed tape replay differs from live generation", name)
		}

		liveF, err := Run(nil, scnRun(Functional, cfg, scn, ps), nil)
		if err != nil {
			t.Fatal(err)
		}
		replayF, err := Run(nil, tapeRun(Functional, cfg, tape, ps), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(liveF, replayF) {
			t.Fatalf("%s: functional tape replay differs from live generation", name)
		}
	}
}

// TestScenarioTapeBudgetExact: scenario tapes must match the run budget
// exactly (fraction phases resolve against it), unlike plain tapes
// which only need to cover it.
func TestScenarioTapeBudgetExact(t *testing.T) {
	cfg := scenarioTestConfig(1000, 2000)
	scn := testScenario(t, "phase-flip").Scaled(cfg.Scale)
	bigger := trace.NewScenarioTape(scn, cfg.Seed, cfg.Cores, 4000)
	if _, err := Run(nil, tapeRun(Timed, cfg, bigger, PrefSpec{Kind: STMS}), nil); err == nil {
		t.Fatal("oversized scenario tape accepted; phase marks would shift")
	}
	spec, err := trace.ByName("web-apache")
	if err != nil {
		t.Fatal(err)
	}
	plain := trace.NewTape(spec.Scaled(cfg.Scale), cfg.Seed, cfg.Cores, 4000)
	if _, err := Run(nil, tapeRun(Timed, cfg, plain, PrefSpec{Kind: STMS}), nil); err != nil {
		t.Fatalf("oversized plain tape rejected: %v", err)
	}
}
