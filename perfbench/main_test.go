package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestSelfCheck runs every workload, untraced and traced with every
// replay driver, at a tiny size, and checks that every result matches
// the direct entry points and that every metric is reported with its
// unit.
func TestSelfCheck(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			e := &env{seed: 7, size: tinySize(), par: 2}
			want, err := expectedFor(ctx, w, e)
			if err != nil {
				t.Fatal(err)
			}

			rep := &report{Workload: w.name}
			if err := measureRun(ctx, w, e, time.Millisecond, want, rep); err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, endToEnd)
			for _, m := range endToEnd {
				if v := rep.Metrics[m.name].Value; v <= 0 {
					t.Errorf("end-to-end %s = %g, want > 0", m.name, v)
				}
			}
			if rep.Iterations < minIterations {
				t.Errorf("%d iterations, want at least %d", rep.Iterations, minIterations)
			}
			for _, name := range applicable[w.name] {
				m, _ := metricByName(simulated, name)
				if v, ok := rep.Simulated[name]; !ok || v.Unit != m.unit || v.Value <= 0 {
					t.Errorf("simulated %s = %+v, want a positive value in %s", name, v, m.unit)
				}
			}

			rep = &report{Workload: w.name, Traced: true}
			if err := tracedRun(ctx, w, e, want, rep, t.TempDir()); err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, perLayer)
			if len(rep.SelfS) == 0 {
				t.Error("traced run reported no self times")
			}
		})
	}
}

// applicable lists the simulated figures each workload must report.
var applicable = map[string][]string{
	"fig8-timed":   {"sim_stms_speedup", "sim_stms_coverage", "sim_meta_overhead"},
	"remote-ckpt":  {"sim_stms_speedup", "sim_stms_coverage", "sim_meta_overhead"},
	"sampled-oltp": {"sample_err_pct"},
}

func checkReport(t *testing.T, rep *report, want []metric) {
	t.Helper()
	if rep.Failed != 0 || rep.Attempted == 0 {
		t.Errorf("%d of %d operations failed: %v", rep.Failed, rep.Attempted, rep.Failures)
	}
	if len(rep.Metrics) != len(want) {
		t.Errorf("%d metrics reported, want %d", len(rep.Metrics), len(want))
	}
	for _, m := range want {
		if v, ok := rep.Metrics[m.name]; !ok || v.Unit != m.unit {
			t.Errorf("metric %s = %+v, want unit %s", m.name, v, m.unit)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json lists the workloads and
// metrics this program reports, with the same units and directions.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better, Why string
		Bound                   float64
	}
	var doc struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("%d workloads listed, program has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if i < len(workloads) && (w.Name != workloads[i].name || w.Why != workloads[i].why) {
			t.Errorf("workload %d: listed %q, program has %q", i, w.Name, workloads[i].name)
		}
	}
	for _, l := range []struct {
		got  []entry
		want []metric
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(l.got) != len(l.want) {
			t.Errorf("%d metrics listed, program reports %d", len(l.got), len(l.want))
			continue
		}
		for i, m := range l.want {
			if g := l.got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("listed %+v, program reports %+v", g, m)
			}
		}
	}
	for _, m := range doc.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestRemoteCkptRunsRemotely checks that remote-ckpt's cells run on the
// workers, which write checkpoints, and that a run whose workers are
// gone counts its remote jobs as failed, although the Lab's in-process
// fallback gives the same Results.
func TestRemoteCkptRunsRemotely(t *testing.T) {
	ctx := context.Background()
	w, err := workloadByName("remote-ckpt")
	if err != nil {
		t.Fatal(err)
	}
	for _, down := range []bool{false, true} {
		e := &env{seed: 7, size: tinySize(), par: 2}
		inst, err := w.setup(ctx, e)
		if err != nil {
			t.Fatal(err)
		}
		r := inst.(*labRun)
		if down {
			r.fleet.stop()
		}
		o, err := inst.measure(ctx)
		if err != nil {
			t.Fatal(err)
		}
		inst.finish(o)
		inst.close()
		rs, cells, failed := r.lab.RemoteStats(), len(w.cells(e.size)), 0
		for _, p := range o.ops {
			if p.err != nil {
				failed++
			}
		}
		switch {
		case !down && (rs.RemoteCells != uint64(cells) || rs.LocalCells != 0 || rs.CkptWrites == 0 || failed != 0):
			t.Errorf("workers up: %+v, %d failed ops; want all %d cells remote with checkpoints and none failed", rs, failed, cells)
		case down && failed < cells:
			t.Errorf("workers down: %+v, %d failed ops; want at least %d", rs, failed, cells)
		}
	}
}
