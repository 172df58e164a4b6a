package lab

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"stms/internal/dist"
	"stms/internal/sim"
	"stms/internal/trace"
)

// testWorkers starts n store-backed dist workers wired as peers of each
// other, returning their base URLs and servers.
func testWorkers(t *testing.T, n int) ([]string, []*dist.Server) {
	t.Helper()
	servers := make([]*dist.Server, n)
	tss := make([]*httptest.Server, n)
	urls := make([]string, n)
	// Two passes: peers need every URL, and httptest assigns them on
	// start — so start with empty peer lists, then rebuild.
	for i := range servers {
		servers[i] = dist.NewServer(dist.ServerConfig{Store: dist.NewStore(1<<30, "")})
		tss[i] = httptest.NewServer(servers[i])
		urls[i] = tss[i].URL
		t.Cleanup(tss[i].Close)
	}
	for i := range servers {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		servers[i] = dist.NewServer(dist.ServerConfig{
			Name:  urls[i],
			Store: servers[i].Store(),
			Peers: peers,
		})
		tss[i].Config.Handler = servers[i]
	}
	return urls, servers
}

var remotePrefs = []sim.PrefSpec{
	{Kind: sim.None},
	{Kind: sim.Ideal},
	{Kind: sim.STMS, SampleProb: 0.125},
}

func TestRemoteMatrixBitIdentical(t *testing.T) {
	workloads := []string{"sci-em3d", "oltp-db2"}

	local := testLab(t)
	lm, err := local.Run(context.Background(), local.Plan(workloads, remotePrefs))
	if err != nil {
		t.Fatal(err)
	}

	urls, servers := testWorkers(t, 2)
	remote := testLab(t, WithWorkers(urls))
	rm, err := remote.Run(context.Background(), remote.Plan(workloads, remotePrefs))
	if err != nil {
		t.Fatal(err)
	}

	// Cell-for-cell bit identity of the simulation results.
	if len(lm.Cells) != len(rm.Cells) {
		t.Fatalf("matrix sizes differ: %d vs %d", len(lm.Cells), len(rm.Cells))
	}
	for i := range lm.Cells {
		lc, rc := lm.Cells[i], rm.Cells[i]
		if (lc.Res == nil) != (rc.Res == nil) {
			t.Fatalf("cell %d: result presence differs", i)
		}
		if lc.Res != nil && !reflect.DeepEqual(*lc.Res, *rc.Res) {
			t.Fatalf("cell %d (%s/%s): remote result differs from local:\nlocal  %+v\nremote %+v",
				i, lc.Cell.Workload, lc.Cell.Label, *lc.Res, *rc.Res)
		}
	}

	// The canonical JSON exports (wall time zeroed — it measures the
	// machine, not the simulated system) are byte-identical.
	for i := range lm.Cells {
		lm.Cells[i].Wall = 0
		rm.Cells[i].Wall = 0
	}
	var lj, rj bytes.Buffer
	if err := lm.WriteJSON(&lj); err != nil {
		t.Fatal(err)
	}
	if err := rm.WriteJSON(&rj); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lj.Bytes(), rj.Bytes()) {
		t.Fatalf("JSON exports differ:\nlocal  %s\nremote %s", lj.Bytes(), rj.Bytes())
	}

	// Every cell ran remotely, and each unique tape was built exactly
	// once across the fleet: affinity routing sends all variants of a
	// workload to one home worker, so no tape is rebuilt or refetched.
	rs := remote.RemoteStats()
	if int(rs.RemoteCells) != len(rm.Cells) || rs.LocalCells != 0 {
		t.Fatalf("dispatch stats = %+v, want all %d cells remote", rs, len(rm.Cells))
	}
	var builds, peerHits uint64
	for _, s := range servers {
		st := s.Store().Stats()
		builds += st.Builds
		peerHits += st.PeerHits
	}
	if int(builds) != len(workloads) {
		t.Fatalf("fleet built %d tapes for %d workloads; want exactly one build per unique trace identity", builds, len(workloads))
	}
	if rs.TapeBuilds != builds {
		t.Fatalf("coordinator counted %d tape builds, fleet reports %d", rs.TapeBuilds, builds)
	}
	if peerHits != rs.TapeFetches {
		t.Fatalf("coordinator counted %d tape fetches, fleet reports %d peer hits", rs.TapeFetches, peerHits)
	}
}

func TestRemoteDegradesToLocal(t *testing.T) {
	// No worker is listening on these: every cell must fall back to
	// in-process simulation and still match a purely local run.
	// (fastResilience keeps the retry rounds and backoffs snappy.)
	urls := []string{"http://127.0.0.1:1", "http://127.0.0.1:2"}
	remote := testLab(t, WithWorkers(urls), WithResilience(fastResilience()))
	workloads := []string{"sci-em3d"}
	rm, err := remote.Run(context.Background(), remote.Plan(workloads, remotePrefs))
	if err != nil {
		t.Fatal(err)
	}

	local := testLab(t)
	lm, err := local.Run(context.Background(), local.Plan(workloads, remotePrefs))
	if err != nil {
		t.Fatal(err)
	}
	for i := range lm.Cells {
		if !reflect.DeepEqual(lm.Cells[i].Res, rm.Cells[i].Res) {
			t.Fatalf("cell %d: degraded result differs from local", i)
		}
	}
	rs := remote.RemoteStats()
	if rs.RemoteCells != 0 || int(rs.LocalCells) != len(rm.Cells) {
		t.Fatalf("dispatch stats = %+v, want all cells local", rs)
	}
	if rs.Retries == 0 {
		t.Fatalf("dispatch stats = %+v, want transport retries recorded", rs)
	}
}

func TestRemoteJobFailureNotRetried(t *testing.T) {
	urls, _ := testWorkers(t, 2)
	remote := testLab(t, WithWorkers(urls))
	plan := remote.Plan([]string{"sci-em3d"}, []sim.PrefSpec{{Kind: sim.None}},
		ForEachCell(func(c *Cell) { c.Config.Cores = -1 }))
	m, err := remote.Run(context.Background(), plan)
	if err == nil {
		t.Fatal("broken per-cell config succeeded")
	}
	if m.Cells[0].Err == nil {
		t.Fatal("cell error not recorded")
	}
	rs := remote.RemoteStats()
	// A deterministic job failure must not burn retries or fall back.
	if rs.Retries != 0 || rs.LocalCells != 0 {
		t.Fatalf("dispatch stats = %+v, want no retries and no local fallback", rs)
	}
}

func TestManifestResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.manifest")
	workloads := []string{"sci-em3d", "oltp-db2"}

	// First session: run only the first workload, then "die".
	l1 := testLab(t, WithManifest(path))
	m1, err := l1.Run(context.Background(), l1.Plan(workloads[:1], remotePrefs))
	if err != nil {
		t.Fatal(err)
	}

	// Restarted session on the same manifest: the full plan must
	// simulate only the second workload's cells.
	var started []string
	l2 := testLab(t, WithManifest(path), WithProgress(func(ev ResultEvent) {
		if ev.Kind == CellStarted {
			started = append(started, ev.Cell.Workload)
		}
	}))
	if got := l2.MemoSize(); got != len(m1.Cells) {
		t.Fatalf("resumed session preloaded %d cells, want %d", got, len(m1.Cells))
	}
	m2, err := l2.Run(context.Background(), l2.Plan(workloads, remotePrefs))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range started {
		if w == workloads[0] {
			t.Fatalf("resumed run re-simulated finished cell of %s", w)
		}
	}
	if len(started) != len(remotePrefs) {
		t.Fatalf("resumed run simulated %d cells, want %d", len(started), len(remotePrefs))
	}

	// The resumed matrix is bit-identical to an uninterrupted run.
	clean := testLab(t)
	mc, err := clean.Run(context.Background(), clean.Plan(workloads, remotePrefs))
	if err != nil {
		t.Fatal(err)
	}
	for i := range mc.Cells {
		if !reflect.DeepEqual(mc.Cells[i].Res, m2.Cells[i].Res) {
			t.Fatalf("cell %d (%s/%s): resumed result differs from uninterrupted run",
				i, mc.Cells[i].Cell.Workload, mc.Cells[i].Cell.Label)
		}
	}

	// A third session over the completed manifest simulates nothing.
	var started3 int
	l3 := testLab(t, WithManifest(path), WithProgress(func(ev ResultEvent) {
		if ev.Kind == CellStarted {
			started3++
		}
	}))
	if _, err := l3.Run(context.Background(), l3.Plan(workloads, remotePrefs)); err != nil {
		t.Fatal(err)
	}
	if started3 != 0 {
		t.Fatalf("completed manifest still simulated %d cells", started3)
	}
}

func TestManifestToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.manifest")
	l1 := testLab(t, WithManifest(path))
	if _, err := l1.Run(context.Background(), l1.Plan([]string{"sci-em3d"}, remotePrefs)); err != nil {
		t.Fatal(err)
	}
	// A coordinator killed mid-append leaves half an entry; the resumed
	// session must keep the complete prefix and drop the tail.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"lab-cell-torn","results":{"ip`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2 := testLab(t, WithManifest(path))
	if got := l2.MemoSize(); got != len(remotePrefs) {
		t.Fatalf("torn manifest preloaded %d cells, want %d", got, len(remotePrefs))
	}
	// The session keeps appending cleanly after the repair.
	if _, err := l2.Run(context.Background(), l2.Plan([]string{"oltp-db2"}, remotePrefs)); err != nil {
		t.Fatal(err)
	}
	l3 := testLab(t, WithManifest(path))
	if got := l3.MemoSize(); got != 2*len(remotePrefs) {
		t.Fatalf("after repair and rerun, %d cells preloaded, want %d", got, 2*len(remotePrefs))
	}
}

func TestManifestRepairSurvivesLostDirent(t *testing.T) {
	// The crash window DESIGN.md §11 used to gloss over: a repair's
	// rename can survive the file but not the dirent — the machine dies
	// after the temp file's data is durable but before the directory
	// update is. Recovery then sees the PRE-repair manifest (torn tail
	// and all) plus a stale .manifest-repair-* temp holding the repaired
	// prefix. The next open must redo the repair from the old file and
	// treat the stale temp as inert; repair now fsyncs the directory so
	// the window cannot recur on the redo.
	dir := t.TempDir()
	path := filepath.Join(dir, "run.manifest")
	l1 := testLab(t, WithManifest(path))
	if _, err := l1.Run(context.Background(), l1.Plan([]string{"sci-em3d"}, remotePrefs)); err != nil {
		t.Fatal(err)
	}

	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The stale temp: the repaired prefix a dead session wrote and
	// fsync'd, whose rename's dirent never became durable.
	stale := filepath.Join(dir, ".manifest-repair-1234567")
	if err := os.WriteFile(stale, intact, 0o600); err != nil {
		t.Fatal(err)
	}
	// The manifest itself still shows the pre-repair state: a torn tail.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"lab-cell-torn","ckpt":"deadbe`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2 := testLab(t, WithManifest(path))
	if got := l2.MemoSize(); got != len(remotePrefs) {
		t.Fatalf("recovered manifest preloaded %d cells, want %d", got, len(remotePrefs))
	}
	// The redo repaired the file back to its valid prefix, and appends
	// land cleanly after it.
	if _, err := l2.Run(context.Background(), l2.Plan([]string{"oltp-db2"}, remotePrefs)); err != nil {
		t.Fatal(err)
	}
	l3 := testLab(t, WithManifest(path))
	if got := l3.MemoSize(); got != 2*len(remotePrefs) {
		t.Fatalf("after redo and rerun, %d cells preloaded, want %d", got, 2*len(remotePrefs))
	}
	if _, err := os.Stat(stale); err != nil {
		t.Fatalf("stale repair temp: %v, want it left alone (inert, never adopted)", err)
	}
}

func TestManifestRejectsWrongVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.manifest")
	if err := os.WriteFile(path, []byte(`{"stms_manifest":99}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(WithManifest(path)); err == nil {
		t.Fatal("wrong manifest version accepted")
	}
	// A version 1 manifest keys cells by the old per-package identity:
	// it is refused with a pointer at the way out, not misread.
	v1 := filepath.Join(t.TempDir(), "v1.manifest")
	if err := os.WriteFile(v1, []byte(`{"stms_manifest":1}`+"\n"+`{"key":"0|spec=...","ckpt":"abc"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := New(WithManifest(v1))
	if err == nil {
		t.Fatal("version 1 manifest accepted")
	}
	if msg := err.Error(); !strings.Contains(msg, v1) || !strings.Contains(msg, "delete it") || !strings.Contains(msg, "-manifest") {
		t.Fatalf("version 1 rejection %q does not name the path and the way out", msg)
	}
}

func TestWorkerOptionValidation(t *testing.T) {
	if _, err := New(WithWorkers([]string{"http://a", ""})); err == nil {
		t.Fatal("empty worker URL accepted")
	}
	if _, err := New(WithManifest("")); err == nil {
		t.Fatal("empty manifest path accepted")
	}
}

func TestRemoteScenarioCells(t *testing.T) {
	urls, _ := testWorkers(t, 2)
	remote := testLab(t, WithWorkers(urls))
	local := testLab(t)

	var scns []trace.Scenario
	for _, name := range []string{"phase-flip", "migratory-handoff"} {
		scn, err := trace.ScenarioByName(name)
		if err != nil {
			t.Fatal(err)
		}
		scns = append(scns, scn)
	}
	rm, err := remote.Run(context.Background(), remote.PlanScenarios(scns, remotePrefs[:2]))
	if err != nil {
		t.Fatal(err)
	}
	lm, err := local.Run(context.Background(), local.PlanScenarios(scns, remotePrefs[:2]))
	if err != nil {
		t.Fatal(err)
	}
	for i := range lm.Cells {
		if !reflect.DeepEqual(lm.Cells[i].Res, rm.Cells[i].Res) {
			t.Fatalf("scenario cell %d: remote result differs from local", i)
		}
	}
	rs := remote.RemoteStats()
	if int(rs.RemoteCells) != len(rm.Cells) {
		t.Fatalf("dispatch stats = %+v, want all scenario cells remote", rs)
	}
}
