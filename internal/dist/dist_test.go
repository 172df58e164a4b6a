package dist

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"stms/internal/sim"
	"stms/internal/trace"
)

// testJob builds a small timed job over a named workload.
func testJob(t *testing.T, workload string, pref sim.PrefSpec) *Job {
	t.Helper()
	spec, err := trace.ByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.Scale = 0.0625
	cfg.Seed = 11
	cfg.WarmRecords = 500
	cfg.MeasureRecords = 1_000
	return &Job{
		Version:  JobFormatVersion,
		Workload: workload,
		Variant:  "test",
		Run:      sim.RunSpec{Mode: sim.Timed, Config: cfg, Source: sim.Source{Spec: &spec}, Pref: pref},
	}
}

func TestJobValidate(t *testing.T) {
	good := testJob(t, "sci-em3d", sim.PrefSpec{Kind: sim.None})
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *good
	bad.Version = 4
	if err := bad.Validate(); err == nil {
		t.Error("wrong version accepted")
	}
	bad = *good
	bad.Run.Mode = sim.Mode(7)
	if err := bad.Validate(); err == nil {
		t.Error("unknown mode accepted")
	}
	bad = *good
	bad.Run.Source.Spec = nil
	if err := bad.Validate(); err == nil {
		t.Error("job with no workload accepted")
	}
	bad = *good
	scn := trace.Stationary("s", *good.Run.Source.Spec)
	bad.Run.Source.Scenario = &scn
	if err := bad.Validate(); err == nil {
		t.Error("job with both spec and scenario accepted")
	}
	bad = *good
	bad.Run.Source = sim.Source{Tape: trace.NewTape(*good.Run.Source.Spec, 1, 1, 10)}
	if err := bad.Validate(); err == nil {
		t.Error("job over a tape accepted")
	}

	// A version 1 job document (mode, spec, config and pref at top
	// level) decodes, and is rejected by the version check.
	var v1 Job
	if err := json.Unmarshal([]byte(`{"stms_job":1,"mode":"timed","workload":"w","variant":"v","spec":{},"config":{},"pref":{}}`), &v1); err != nil {
		t.Fatal(err)
	}
	if err := v1.Validate(); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Errorf("version 1 job: %v, want a version rejection", err)
	}

	// A version 2 job (no sampling field) decodes whole, and is
	// rejected by the version check too.
	b, err := json.Marshal(good)
	if err != nil {
		t.Fatal(err)
	}
	var v2 Job
	if err := json.Unmarshal([]byte(strings.Replace(string(b), `"stms_job":3`, `"stms_job":2`, 1)), &v2); err != nil {
		t.Fatal(err)
	}
	if err := v2.Validate(); err == nil || !strings.Contains(err.Error(), "version 2") {
		t.Errorf("version 2 job: %v, want a version rejection", err)
	}

	// Sampling belongs to timed jobs of at least two windows; an exact
	// job omits it.
	for _, smp := range []sim.Sampling{{Windows: 1}, {}} {
		bad = *good
		bad.Sampling = &smp
		if err := bad.Validate(); err == nil {
			t.Errorf("job sampled at %+v accepted", smp)
		}
	}
	bad = *good
	bad.Sampling = &sim.Sampling{Windows: 2}
	bad.Run.Mode = sim.Functional
	if err := bad.Validate(); err == nil {
		t.Error("sampled functional job accepted")
	}
}

func TestJobJSONRoundTrip(t *testing.T) {
	job := testJob(t, "oltp-db2", sim.PrefSpec{Kind: sim.STMS, SampleProb: 0.125})
	b, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"stms_job":3`) || !strings.Contains(string(b), `"run":{"mode":"timed"`) ||
		strings.Contains(string(b), `"sampling"`) {
		t.Fatalf("job document not versioned: %s", b)
	}
	var back Job
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(job, &back) {
		t.Fatalf("job not identical after round trip:\n got %+v\nwant %+v", back, job)
	}
	k1, err := job.CkptKey()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := back.CkptKey()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("run key changed across the wire: %s vs %s", k1, k2)
	}

	// A sampled job carries its Sampling across the wire and is
	// addressed by the sampled run's identity, never the exact run's.
	smpJob := *job
	smpJob.Sampling = &sim.Sampling{Windows: 3, Confidence: 0.9}
	b, err = json.Marshal(&smpJob)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"sampling":{"windows":3`) {
		t.Fatalf("sampled job document lacks its sampling: %s", b)
	}
	var smpBack Job
	if err := json.Unmarshal(b, &smpBack); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&smpJob, &smpBack) {
		t.Fatalf("sampled job not identical after round trip:\n got %+v\nwant %+v", smpBack, smpJob)
	}
	ks1, err := smpJob.CkptKey()
	if err != nil {
		t.Fatal(err)
	}
	if ks2, err := smpBack.CkptKey(); err != nil || ks1 != ks2 || ks1 == k1 {
		t.Fatalf("sampled key %s → %s (%v), exact key %s: want stable and distinct", ks1, ks2, err, k1)
	}

	// A scenario run travels as its own versioned document and keeps
	// its key; a tape run cannot travel without its records.
	spec := *job.Run.Source.Spec
	scn := trace.Sequence("two", trace.Phase{Records: 100, Spec: spec}, trace.Phase{Spec: spec, Reseed: 1})
	sjob := *job
	sjob.Run.Source = sim.Source{Scenario: &scn}
	b, err = json.Marshal(&sjob)
	if err != nil {
		t.Fatal(err)
	}
	var sback Job
	if err := json.Unmarshal(b, &sback); err != nil {
		t.Fatal(err)
	}
	k1, _ = sjob.CkptKey()
	if k2, err = sback.CkptKey(); err != nil || k1 != k2 {
		t.Fatalf("scenario run key changed across the wire (%v): %s vs %s", err, k1, k2)
	}
	tjob := *job
	tjob.Run.Source = sim.Source{Tape: trace.NewTape(spec, 1, 1, 10)}
	if _, err := json.Marshal(&tjob); err == nil {
		t.Fatal("a tape run encoded without its records")
	}
	for _, run := range []string{
		`{"mode":"timed","config":{},"pref":{},"tape":"00"}`,
		`{"mode":"cycle","config":{},"pref":{},"spec":{}}`,
		`{"mode":"timed","config":{},"pref":{}}`,
		`{"mode":"timed","config":{},"pref":{},"spec":{},"scenario":{"stms_scenario":1,"name":"s","phases":[{}]}}`,
		`{"mode":"timed","config":{},"pref":{},"scenario":{"stms_scenario":9,"name":"s","phases":[{}]}}`,
	} {
		if err := json.Unmarshal([]byte(`{"stms_job":3,"run":`+run+`}`), &sback); err == nil {
			t.Errorf("malformed run %s decoded", run)
		}
	}
}

func TestServerRunJobMatchesDirectSim(t *testing.T) {
	srv := NewServer(ServerConfig{Name: "w1", Store: NewStore(1<<30, "")})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)

	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Name != "w1" || h.Version != HealthFormatVersion {
		t.Fatalf("health = %+v", h)
	}

	job := testJob(t, "sci-em3d", sim.PrefSpec{Kind: sim.STMS, SampleProb: 0.125})
	var kinds []string
	res, err := c.RunJob(context.Background(), job, func(ev Event) {
		kinds = append(kinds, ev.Kind)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Worker != "w1" || res.TapeSource != TapeBuilt {
		t.Fatalf("result meta = worker %q, source %q", res.Worker, res.TapeSource)
	}
	if kinds[0] != "started" || kinds[len(kinds)-1] != "done" {
		t.Fatalf("event stream %v", kinds)
	}

	// The remote result is bit-identical to running the same cell
	// through the sim entry points directly.
	want, err := sim.Run(context.Background(), job.Run, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Res, want) {
		t.Fatalf("remote result differs from direct simulation:\n got %+v\nwant %+v", res.Res, want)
	}

	// A second run of the same job is a memory-tier tape hit.
	res2, err := c.RunJob(context.Background(), job, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.TapeSource != TapeFromMemory {
		t.Fatalf("second run tape source = %q, want memory", res2.TapeSource)
	}
	if !reflect.DeepEqual(res2.Res, want) {
		t.Fatal("taped rerun differs from live result")
	}
}

func TestServerScenarioJob(t *testing.T) {
	srv := NewServer(ServerConfig{Store: NewStore(1<<30, "")})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)

	spec, err := trace.ByName("web-apache")
	if err != nil {
		t.Fatal(err)
	}
	scn := trace.Stationary("station", spec)
	job := testJob(t, "web-apache", sim.PrefSpec{Kind: sim.Ideal})
	job.Run.Source = sim.Source{Scenario: &scn}
	res, err := c.RunJob(context.Background(), job, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(context.Background(), job.Run, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Res, want) {
		t.Fatal("remote scenario result differs from direct simulation")
	}
}

func TestServerJobFailureIsNotTransport(t *testing.T) {
	srv := NewServer(ServerConfig{Store: NewStore(1<<30, "")})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)

	job := testJob(t, "sci-em3d", sim.PrefSpec{Kind: sim.None})
	job.Run.Config.Cores = -4 // deterministic config failure
	_, err := c.RunJob(context.Background(), job, nil)
	if err == nil {
		t.Fatal("broken config succeeded")
	}
	if IsTransport(err) {
		t.Fatalf("deterministic job failure classified as transport: %v", err)
	}

	// A structurally invalid job — here one stamped with the retired
	// version 1 — is rejected with 400, also non-transport.
	bad := testJob(t, "sci-em3d", sim.PrefSpec{Kind: sim.None})
	bad.Version = 1
	_, err = c.RunJob(context.Background(), bad, nil)
	if err == nil || IsTransport(err) {
		t.Fatalf("protocol rejection should be a plain error, got %v", err)
	}

	// An unreachable worker is transport.
	dead := NewClient("http://127.0.0.1:1")
	_, err = dead.RunJob(context.Background(), job, nil)
	if !IsTransport(err) {
		t.Fatalf("connection failure not classified as transport: %v", err)
	}
	if _, err := dead.Health(context.Background()); !IsTransport(err) {
		t.Fatalf("health failure not classified as transport: %v", err)
	}
}

func TestServerTapeExchange(t *testing.T) {
	// Worker A builds a tape; worker B (with A as peer) must fetch it
	// rather than rebuild, and a coordinator can move tapes by hand via
	// GET/PUT.
	a := NewServer(ServerConfig{Name: "a", Store: NewStore(1<<30, "")})
	tsA := httptest.NewServer(a)
	defer tsA.Close()
	b := NewServer(ServerConfig{Name: "b", Store: NewStore(1<<30, ""), Peers: []string{tsA.URL}})
	tsB := httptest.NewServer(b)
	defer tsB.Close()

	job := testJob(t, "oltp-db2", sim.PrefSpec{Kind: sim.None})
	ca, cb := NewClient(tsA.URL), NewClient(tsB.URL)
	resA, err := ca.RunJob(context.Background(), job, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resA.TapeSource != TapeBuilt {
		t.Fatalf("first execution tape source = %q", resA.TapeSource)
	}
	resB, err := cb.RunJob(context.Background(), job, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resB.TapeSource != TapeFromPeer {
		t.Fatalf("peer execution tape source = %q, want peer", resB.TapeSource)
	}
	if !reflect.DeepEqual(resA.Res, resB.Res) {
		t.Fatal("peer-taped result differs")
	}
	if st := b.Store().Stats(); st.PeerHits != 1 || st.Builds != 0 {
		t.Fatalf("worker b stats = %+v, want pure peer hit", st)
	}

	// Manual tape movement: fetch from A, push to a third store-backed
	// worker, and watch it serve the job without building.
	key, _, err := job.Run.TapeRecipe()
	if err != nil {
		t.Fatal(err)
	}
	tape, err := ca.FetchTape(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	cSrv := NewServer(ServerConfig{Name: "c", Store: NewStore(1<<30, "")})
	tsC := httptest.NewServer(cSrv)
	defer tsC.Close()
	cc := NewClient(tsC.URL)
	if err := cc.PushTape(context.Background(), key, tape); err != nil {
		t.Fatal(err)
	}
	resC, err := cc.RunJob(context.Background(), job, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resC.TapeSource != TapeFromMemory {
		t.Fatalf("pushed-tape execution source = %q, want memory", resC.TapeSource)
	}

	// Pushing under a wrong address is rejected (content addressing).
	if err := cc.PushTape(context.Background(), strings.Repeat("0", 64), tape); err == nil || IsTransport(err) {
		t.Fatalf("mis-addressed push: %v", err)
	}
}

func TestServerUnknownIDSuggestions(t *testing.T) {
	srv := NewServer(ServerConfig{Name: "w", Store: NewStore(1<<30, "")})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)

	job := testJob(t, "sci-em3d", sim.PrefSpec{Kind: sim.None})
	if _, err := c.RunJob(context.Background(), job, nil); err != nil {
		t.Fatal(err)
	}

	// GET /jobs/{typo} suggests the real id.
	resp, err := ts.Client().Get(ts.URL + "/jobs/job-11")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf [512]byte
	n, _ := resp.Body.Read(buf[:])
	body := string(buf[:n])
	if resp.StatusCode != 404 || !strings.Contains(body, `"job-1"`) {
		t.Fatalf("status %d body %q, want 404 with a job-1 suggestion", resp.StatusCode, body)
	}

	// GET /tapes/{near-miss} names the nearest resident address.
	key, _, err := job.Run.TapeRecipe()
	if err != nil {
		t.Fatal(err)
	}
	typo := "0" + key[1:]
	resp2, err := ts.Client().Get(ts.URL + "/tapes/" + typo)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	n, _ = resp2.Body.Read(buf[:])
	body = string(buf[:n])
	if resp2.StatusCode != 404 || !strings.Contains(body, "nearest resident address") {
		t.Fatalf("status %d body %q, want 404 with nearest-address hint", resp2.StatusCode, body)
	}
}

func TestServerLiveModeWithoutStore(t *testing.T) {
	srv := NewServer(ServerConfig{Name: "live"})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)

	job := testJob(t, "sci-em3d", sim.PrefSpec{Kind: sim.None})
	res, err := c.RunJob(context.Background(), job, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.TapeSource != TapeLive {
		t.Fatalf("storeless worker tape source = %q, want live", res.TapeSource)
	}
	want, err := sim.Run(context.Background(), job.Run, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Res, want) {
		t.Fatal("live worker result differs from direct simulation")
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	job := testJob(t, "sci-em3d", sim.PrefSpec{Kind: sim.STMS, SampleProb: 0.125})
	res, err := sim.Run(context.Background(), job.Run, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := Result{Version: ResultFormatVersion, Res: res, TapeSource: TapeBuilt, Worker: "w", WallMS: 1.5}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, back) {
		t.Fatalf("result not identical after round trip:\n got %+v\nwant %+v", back, r)
	}
}
