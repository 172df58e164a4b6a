package dist

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"stms/internal/trace"
)

// testTape materializes a small distinct tape per index.
func testTape(t *testing.T, i int) (string, *trace.Tape) {
	t.Helper()
	spec, err := trace.ByName("sci-em3d")
	if err != nil {
		t.Fatal(err)
	}
	spec = spec.Scaled(0.0625)
	seed := uint64(100 + i)
	tape := trace.NewTape(spec, seed, 2, 500)
	return trace.TapeKey(spec, "", seed, 2, 500), tape
}

func TestStoreGetOrBuildSingleflight(t *testing.T) {
	s := NewStore(1<<30, "")
	key, want := testTape(t, 0)
	builds := 0
	var mu sync.Mutex
	build := func() *trace.Tape {
		mu.Lock()
		builds++
		mu.Unlock()
		_, tp := testTape(t, 0)
		return tp
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _, err := s.GetOrBuild(context.Background(), key, nil, build)
			if err != nil {
				t.Error(err)
				return
			}
			if got.Bytes() != want.Bytes() {
				t.Errorf("tape size %d, want %d", got.Bytes(), want.Bytes())
			}
		}()
	}
	wg.Wait()
	if builds != 1 {
		t.Fatalf("build ran %d times under 8 concurrent callers, want 1", builds)
	}
	st := s.Stats()
	if st.Builds != 1 || st.Misses != 1 || st.Hits != 7 {
		t.Fatalf("stats = %+v, want 1 build, 1 miss, 7 hits", st)
	}
}

func TestStoreEvictionUnderConcurrentAccess(t *testing.T) {
	// A budget of one byte forces an eviction on every admission; the
	// race detector checks the LRU bookkeeping under concurrent
	// GetOrBuild, Get and Put traffic over many distinct tapes.
	dir := t.TempDir()
	s := NewStore(1, dir)
	const tapes = 6
	keys := make([]string, tapes)
	vals := make([]*trace.Tape, tapes)
	for i := range keys {
		keys[i], vals[i] = testTape(t, i)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				for i := range keys {
					i := (i + w) % tapes
					switch (w + r) % 3 {
					case 0:
						build := func() *trace.Tape { _, tp := testTape(t, i); return tp }
						if _, _, err := s.GetOrBuild(context.Background(), keys[i], nil, build); err != nil {
							t.Error(err)
						}
					case 1:
						s.Get(keys[i])
					default:
						if err := s.Put(keys[i], vals[i]); err != nil {
							t.Error(err)
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a 1-byte budget: %+v", st)
	}
	if st.BytesInUse < 0 {
		t.Fatalf("negative BytesInUse after eviction churn: %+v", st)
	}
	if n := s.Len(); n > 1 {
		t.Fatalf("%d tapes resident in a 1-byte memory tier", n)
	}
}

func TestStoreDiskTierPersists(t *testing.T) {
	dir := t.TempDir()
	key, _ := testTape(t, 0)
	build := func() *trace.Tape { _, tp := testTape(t, 0); return tp }

	s1 := NewStore(1<<30, dir)
	if _, src, err := s1.GetOrBuild(context.Background(), key, nil, build); err != nil || src != TapeBuilt {
		t.Fatalf("first resolution: src=%v err=%v, want built", src, err)
	}

	// A fresh store over the same directory loads from disk, not build.
	s2 := NewStore(1<<30, dir)
	poison := func() *trace.Tape {
		t.Error("build ran despite a valid disk tape")
		return nil
	}
	if _, src, err := s2.GetOrBuild(context.Background(), key, nil, poison); err != nil || src != TapeFromDisk {
		t.Fatalf("second resolution: src=%v err=%v, want disk", src, err)
	}
	if st := s2.Stats(); st.DiskHits != 1 {
		t.Fatalf("stats = %+v, want 1 disk hit", st)
	}
}

func TestStoreCorruptDiskTapeRebuilt(t *testing.T) {
	dir := t.TempDir()
	key, _ := testTape(t, 0)
	build := func() *trace.Tape { _, tp := testTape(t, 0); return tp }

	s1 := NewStore(1<<30, dir)
	if _, _, err := s1.GetOrBuild(context.Background(), key, nil, build); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key+tapeFileSuffix)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Truncate the on-disk tape mid-file: the store must detect the
	// damage, remove the file, and rebuild rather than serve it.
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := NewStore(1<<30, dir)
	rebuilt := false
	if _, src, err := s2.GetOrBuild(context.Background(), key, nil, func() *trace.Tape {
		rebuilt = true
		_, tp := testTape(t, 0)
		return tp
	}); err != nil || src != TapeBuilt {
		t.Fatalf("corrupt-tape resolution: src=%v err=%v, want rebuild", src, err)
	}
	if !rebuilt {
		t.Fatal("corrupt disk tape served without rebuilding")
	}
	if st := s2.Stats(); st.DiskSkips != 1 {
		t.Fatalf("stats = %+v, want 1 disk skip", st)
	}
	// The rebuild repaired the disk tier.
	repaired, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("disk tier not repaired: %v", err)
	}
	if len(repaired) != len(raw) {
		t.Fatalf("repaired file is %d bytes, original was %d", len(repaired), len(raw))
	}

	// Same for a wrong-identity file: valid STMSTAPE bytes under the
	// wrong address must be rejected by the content check.
	_, other := testTape(t, 1)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteTape(f, other); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s3 := NewStore(1<<30, dir)
	if _, src, err := s3.GetOrBuild(context.Background(), key, nil, func() *trace.Tape {
		_, tp := testTape(t, 0)
		return tp
	}); err != nil || src != TapeBuilt {
		t.Fatalf("mis-addressed-tape resolution: src=%v err=%v, want rebuild", src, err)
	}
}

func TestStorePutRejectsWrongAddress(t *testing.T) {
	s := NewStore(1<<30, "")
	_, tape := testTape(t, 0)
	if err := s.Put("0000000000000000", tape); err == nil {
		t.Fatal("Put accepted a tape under the wrong address")
	}
	key, _ := testTape(t, 0)
	if err := s.Put(key, tape); err != nil {
		t.Fatalf("Put rejected the correct address: %v", err)
	}
	if _, ok := s.Get(key); !ok {
		t.Fatal("tape not resident after Put")
	}
}

func TestStoreBuildPanicContained(t *testing.T) {
	s := NewStore(1<<30, "")
	key := "deadbeef"
	_, _, err := s.GetOrBuild(context.Background(), key, nil, func() *trace.Tape {
		panic("invalid spec")
	})
	if err == nil {
		t.Fatal("panicking build returned no error")
	}
	// The broken entry is dropped so a fixed caller can retry.
	if _, _, err := s.GetOrBuild(context.Background(), key, nil, func() *trace.Tape {
		_, tp := testTape(t, 0)
		return tp
	}); err != nil {
		t.Fatalf("retry after contained panic: %v", err)
	}
}

func TestStoreFetchHookVerified(t *testing.T) {
	s := NewStore(1<<30, "")
	key, want := testTape(t, 0)
	_, wrong := testTape(t, 1)

	// A fetch hook returning the wrong tape is ignored; the build runs.
	_, src, err := s.GetOrBuild(context.Background(), key,
		func(context.Context) (*trace.Tape, error) { return wrong, nil },
		func() *trace.Tape { _, tp := testTape(t, 0); return tp })
	if err != nil || src != TapeBuilt {
		t.Fatalf("lying fetch hook: src=%v err=%v, want built", src, err)
	}

	// A truthful hook is trusted and counted as a peer hit.
	s2 := NewStore(1<<30, "")
	_, src, err = s2.GetOrBuild(context.Background(), key,
		func(context.Context) (*trace.Tape, error) { return want, nil },
		func() *trace.Tape {
			t.Error("built despite a valid peer tape")
			return nil
		})
	if err != nil || src != TapeFromPeer {
		t.Fatalf("peer fetch: src=%v err=%v, want peer", src, err)
	}
	if st := s2.Stats(); st.PeerHits != 1 {
		t.Fatalf("stats = %+v, want 1 peer hit", st)
	}
}

func TestStoreKeysSpansTiers(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(1<<30, dir)
	key, _ := testTape(t, 0)
	if _, _, err := s.GetOrBuild(context.Background(), key, nil, func() *trace.Tape {
		_, tp := testTape(t, 0)
		return tp
	}); err != nil {
		t.Fatal(err)
	}
	// A fresh store sees the disk file without loading it.
	s2 := NewStore(1<<30, dir)
	keys := s2.Keys()
	found := false
	for _, k := range keys {
		if k == key {
			found = true
		}
	}
	if !found {
		t.Fatalf("Keys() = %v, missing disk-tier %s", keys, key)
	}
}

func TestTapeKeyDisambiguates(t *testing.T) {
	spec, err := trace.ByName("web-apache")
	if err != nil {
		t.Fatal(err)
	}
	base := trace.TapeKey(spec, "", 1, 4, 1000)
	if trace.TapeKey(spec, "", 2, 4, 1000) == base {
		t.Fatal("seed not in the address")
	}
	if trace.TapeKey(spec, "", 1, 2, 1000) == base {
		t.Fatal("cores not in the address")
	}
	if trace.TapeKey(spec, "", 1, 4, 2000) == base {
		t.Fatal("record budget not in the address")
	}
	scn := trace.Stationary("w", spec)
	if trace.TapeKey(trace.Spec{}, scn.Key(), 1, 4, 1000) == base {
		t.Fatal("scenario identity not in the address")
	}
	if len(base) != 64 {
		t.Fatalf("address %q is not a sha256 hex digest", base)
	}
	for i := 0; i < 3; i++ {
		if trace.TapeKey(spec, "", 1, 4, 1000) != base {
			t.Fatal("address not deterministic")
		}
	}
}

func TestTapeKeyOfMatchesBuilders(t *testing.T) {
	spec, err := trace.ByName("sci-em3d")
	if err != nil {
		t.Fatal(err)
	}
	spec = spec.Scaled(0.0625)
	tape := trace.NewTape(spec, 7, 2, 400)
	if got, want := tape.Key(), trace.TapeKey(spec, "", 7, 2, 400); got != want {
		t.Fatalf("spec tape re-derives %s, want %s", got, want)
	}
	scn := trace.Stationary("w", spec)
	stape := trace.NewScenarioTape(scn, 7, 2, 400)
	if got, want := stape.Key(), trace.TapeKey(trace.Spec{}, scn.Key(), 7, 2, 400); got != want {
		t.Fatalf("scenario tape re-derives %s, want %s", got, want)
	}
}

func BenchmarkStoreHit(b *testing.B) {
	s := NewStore(1<<30, "")
	spec, _ := trace.ByName("sci-em3d")
	spec = spec.Scaled(0.0625)
	key := trace.TapeKey(spec, "", 1, 2, 500)
	build := func() *trace.Tape { return trace.NewTape(spec, 1, 2, 500) }
	if _, _, err := s.GetOrBuild(context.Background(), key, nil, build); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.GetOrBuild(context.Background(), key, nil, build); err != nil {
			b.Fatal(err)
		}
	}
}
