// Command perfbench is the stms benchmark: it runs one named workload
// through the entry points users call (stms.New and Lab.Run, the sim
// tape drivers, the stream outlet and inlet, in-process dist workers
// over loopback), checks every simulated result against a recorded
// digest, and prints its metrics by name with their units. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 96, "failed": 0, "metrics": {"wall_s": {"value": 6.41, "unit": "s"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off over as many fresh iterations as fit in --seconds. With
// --trace 1 one untraced and one traced iteration run, then replay
// drivers time each layer's public API on the workload's own tapes;
// the metrics are the per-layer ones, and the spans are written as
// Chrome trace-event JSON.
//
// Run it from the root of a checkout with run.sh, which builds it:
//
//	bash perfbench/run.sh --workload fig8-timed --seed 42 --seconds 25 --trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "fig8-timed", "workload to run")
	seed := flag.Uint64("seed", 42, "trace and sampling seed")
	seconds := flag.Float64("seconds", 25, "how long the untraced run measures")
	traced := flag.Int("trace", 0, "1: the traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for result documents and traces")
	gen := flag.String("gen-expected", "", "record expected.json for these comma-separated seeds, then exit")
	genPath := flag.String("expected-path", "perfbench/expected.json", "where -gen-expected writes")
	flag.Parse()

	ctx := context.Background()
	par := runtime.NumCPU()
	if *gen != "" {
		var seeds []uint64
		for _, f := range strings.Split(*gen, ",") {
			s, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: bad seed %q\n", f)
				return 2
			}
			seeds = append(seeds, s)
		}
		if err := genExpected(ctx, *genPath, *gen, seeds, par); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	e := &env{seed: *seed, size: fullSize(), par: par}
	rep := &report{Workload: w.name, Seed: *seed, Traced: *traced == 1, Host: fingerprint()}
	fmt.Printf("# perfbench %s seed=%d trace=%d\n# host %s\n", w.name, *seed, *traced, rep.Host)

	want, err := expectedFor(ctx, w, e)
	if err == nil {
		if rep.Traced {
			err = tracedRun(ctx, w, e, want, rep, *out)
		} else {
			err = measureRun(ctx, w, e, time.Duration(*seconds*float64(time.Second)), want, rep)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep.set("error_rate", float64(rep.Failed)/float64(max(rep.Attempted, 1)))
	if err := rep.write(*out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep.print(os.Stdout)
	if rep.Failed > 0 {
		return 1
	}
	return 0
}

// host identifies the machine and build a result came from.
type host struct {
	CPU        string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go_version"`
	Commit     string `json:"commit"`
	Dirty      string `json:"dirty"`
}

func (h host) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s dirty=%s",
		h.CPU, h.NProc, h.GOMAXPROCS, h.Go, h.Commit, h.Dirty)
}

// fingerprint reads the CPU model from /proc/cpuinfo and the commit the
// binary was built from out of its build info ("unknown" when it was
// built outside a git checkout).
func fingerprint() host {
	h := host{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: "unknown", Dirty: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				h.Dirty = s.Value
			}
		}
	}
	return h
}

// report is one run's result document.
type report struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Traced   bool   `json:"traced"`
	Host     host   `json:"host"`

	Iterations int       `json:"iterations"`
	SetupS     []float64 `json:"setup_s"` // each iteration's median set-up
	WallS      []float64 `json:"wall_s"`  // every measured iteration
	AllocMB    []float64 `json:"alloc_mb"`
	Records    uint64    `json:"records_per_iteration"`

	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`

	Metrics   map[string]value   `json:"metrics"`   // the result object's metrics
	Simulated map[string]value   `json:"simulated"` // printed where they apply
	SelfS     map[string]float64 `json:"self_s,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check counts ops against the expected digests. A cell with none
// yet is expected to repeat its first digest.
func (r *report) check(ops []op, want map[string]string) {
	for _, o := range ops {
		r.Attempted++
		var why string
		switch {
		case o.err != nil:
			why = o.err.Error()
		case want[o.id] == "":
			want[o.id] = o.digest
			continue
		case o.digest != want[o.id]:
			why = fmt.Sprintf("digest %s, want %s", o.digest, want[o.id])
		default:
			continue
		}
		r.Failed++
		if len(r.Failures) < 20 {
			r.Failures = append(r.Failures, o.id+": "+why)
		}
	}
}

// set records a metric: a simulated one among the printed-only
// figures, any other in the result object.
func (r *report) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	dst := &r.Metrics
	m, ok := metricByName(simulated, name)
	if ok {
		dst = &r.Simulated
	} else if m, ok = metricByName(endToEnd, name); !ok {
		if m, ok = metricByName(perLayer, name); !ok {
			panic("perfbench: unregistered metric " + name)
		}
	}
	if *dst == nil {
		*dst = map[string]value{}
	}
	(*dst)[name] = value{v, m.unit}
}

func (r *report) write(dir string) error {
	if err := os.MkdirAll(filepath.Join(dir, "results"), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "results", fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, btoi(r.Traced)))
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (r *report) print(f *os.File) {
	fmt.Fprintf(f, "# %d iteration(s), %d records each; %d/%d operations failed\n",
		r.Iterations, r.Records, r.Failed, r.Attempted)
	for _, s := range r.Failures {
		fmt.Fprintln(f, "# FAILED", s)
	}
	if !r.Traced {
		fmt.Fprintf(f, "# wall_s per iteration: %s\n", floats(r.WallS))
		for _, m := range endToEnd {
			v := r.Metrics[m.name]
			fmt.Fprintf(f, "%-22s %14.6g %-10s (%s is better)\n", m.name, v.Value, v.Unit, m.better)
		}
		for _, m := range simulated {
			v, ok := r.Simulated[m.name]
			switch {
			case ok && m.name == "error_rate":
				fmt.Fprintf(f, "%-22s %14.6g %-10s (%s is better; the result object carries it as failed/attempted)\n", m.name, v.Value, v.Unit, m.better)
			case ok:
				fmt.Fprintf(f, "%-22s %14.6g %-10s (%s is better; simulated time, checked by digest, not in the result object)\n", m.name, v.Value, v.Unit, m.better)
			default:
				fmt.Fprintf(f, "%-22s %14s %-10s (does not apply to %s)\n", m.name, "n/a", m.unit, r.Workload)
			}
		}
	} else {
		for _, m := range perLayer {
			v := r.Metrics[m.name]
			not := ""
			if m.still != "-" {
				not = "; not " + m.still
			}
			fmt.Fprintf(f, "%-38s %14.6g %-10s moves %s%s\n", m.name, v.Value, v.Unit, m.moves, not)
		}
		var layers []string
		for l := range r.SelfS {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		for _, l := range layers {
			fmt.Fprintf(f, "# self time %-10s %10.4f s\n", l, r.SelfS[l])
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintln(f, "#", n)
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0 && r.Attempted > 0, r.Attempted, r.Failed, r.Metrics}
	b, _ := json.Marshal(res) // plain floats and strings always encode
	fmt.Fprintln(f, string(b))
}

func floats(v []float64) string {
	var s []string
	for _, x := range v {
		s = append(s, strconv.FormatFloat(x, 'f', 4, 64))
	}
	return strings.Join(s, " ")
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

const minIterations = 3

// iteration is one fresh set-up and measured run of a workload.
type iteration struct {
	setups []time.Duration
	wall   time.Duration
	alloc  uint64
	rssMB  float64 // peak resident set during set-up and measurement
	out    *outcome
}

// setupS is the median of the iteration's set-ups. Reporting the
// median over iterations of these leaves out the first iteration's,
// which runs on a cold heap.
func (it *iteration) setupS() float64 {
	var s []float64
	for _, d := range it.setups {
		s = append(s, d.Seconds())
	}
	return median(s)
}

// iterate sets the workload up afresh (setupReps times, keeping the last
// instance), measures one run, then finishes its checks off the clock.
// Allocation counts the measured part only.
func iterate(ctx context.Context, w *workload, e *env) (*iteration, error) {
	debug.FreeOSMemory() // start every iteration from the live heap
	rss := startRSS()
	defer rss.stop()
	it := &iteration{}
	var inst instance
	for range max(w.setupReps, 1) {
		if inst != nil {
			inst.close()
		}
		sp := e.tr.begin("bench.setup", e.root)
		t := time.Now()
		var err error
		inst, err = w.setup(ctx, e)
		it.setups = append(it.setups, time.Since(t))
		e.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
	}
	defer inst.close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t := time.Now()
	out, err := inst.measure(ctx)
	it.wall = time.Since(t)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	inst.finish(out)
	it.alloc = after.TotalAlloc - before.TotalAlloc
	it.rssMB = rss.stop()
	it.out = out
	return it, nil
}

// measureRun is the untraced run: fresh iterations until --seconds
// have passed (at least three, and none started that would likely end
// well past the limit), reporting medians.
func measureRun(ctx context.Context, w *workload, e *env, seconds time.Duration, want map[string]string, rep *report) error {
	start := time.Now()
	var last *iteration
	var lastDur time.Duration
	var rss []float64
	for n := 0; n < minIterations || time.Since(start)+lastDur/2 < seconds; n++ {
		t := time.Now()
		it, err := iterate(ctx, w, e)
		if err != nil {
			return err
		}
		lastDur = time.Since(t)
		rep.check(it.out.ops, want)
		rep.SetupS = append(rep.SetupS, it.setupS())
		rep.WallS = append(rep.WallS, it.wall.Seconds())
		rep.AllocMB = append(rep.AllocMB, float64(it.alloc)/(1<<20))
		rss = append(rss, it.rssMB)
		rep.Records = it.out.records
		rep.Iterations++
		it.out.lab, it.out.fleet = nil, nil // let the session and its tapes go
		last = it
	}
	var rps []float64
	for _, s := range rep.WallS {
		rps = append(rps, float64(rep.Records)/s)
	}
	rep.set("wall_s", median(rep.WallS))
	rep.set("records_per_s", median(rps))
	rep.set("setup_s", median(rep.SetupS))
	rep.set("peak_rss_mb", median(rss))
	rep.set("alloc_mb", median(rep.AllocMB))
	return simulatedMetrics(ctx, w, e, last.out, want, rep)
}

// rssSampler polls the process's resident set every 2 ms and keeps
// the largest reading. It reads /proc/self/statm into a fixed buffer,
// so sampling allocates nothing.
type rssSampler struct {
	stopCh chan struct{}
	done   chan float64
	once   sync.Once
	peakMB float64
}

func startRSS() *rssSampler {
	r := &rssSampler{stopCh: make(chan struct{}), done: make(chan float64, 1)}
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		r.done <- 0
		return r
	}
	page := float64(os.Getpagesize())
	go func() {
		defer f.Close()
		var buf [128]byte
		peak := 0.0
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			if n, _ := f.ReadAt(buf[:], 0); n > 0 {
				if v := float64(residentPages(buf[:n])) * page; v > peak {
					peak = v
				}
			}
			select {
			case <-r.stopCh:
				r.done <- peak / (1 << 20)
				return
			case <-tick.C:
			}
		}
	}()
	return r
}

// residentPages parses the second field of /proc/self/statm, the
// resident set in pages.
func residentPages(statm []byte) uint64 {
	var v uint64
	for i := bytes.IndexByte(statm, ' ') + 1; i > 0 && i < len(statm) && statm[i] >= '0' && statm[i] <= '9'; i++ {
		v = v*10 + uint64(statm[i]-'0')
	}
	return v
}

// stop ends sampling and returns the peak in MiB; later calls return
// the same value.
func (r *rssSampler) stop() float64 {
	r.once.Do(func() {
		close(r.stopCh)
		r.peakMB = <-r.done
	})
	return r.peakMB
}
