package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// TestTapeMatchesLiveGeneration is the tape substrate's core property:
// for every named workload, a Tape cursor replays the exact record
// sequence of a live generator over the same library — per core, for
// the full materialized budget, and running dry exactly at the end.
func TestTapeMatchesLiveGeneration(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			spec, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			spec = spec.Scaled(0.0625)
			const cores, perCore = 3, 20_000
			tape := NewTape(spec, 99, cores, perCore)
			if tape.Cores() != cores || tape.PerCore() != perCore {
				t.Fatalf("tape shape %d×%d", tape.Cores(), tape.PerCore())
			}
			lib := NewLibrary(spec, 99)
			gens := make([]Generator, cores)
			for c := range gens {
				gens[c] = NewGenerator(lib, c, 99)
			}
			for c := 0; c < cores; c++ {
				cur := tape.Cursor(c)
				if cur.Remaining() != perCore {
					t.Fatalf("core %d holds %d records", c, cur.Remaining())
				}
				var got, want Record
				for i := uint64(0); i < perCore; i++ {
					if !cur.Next(&got) {
						t.Fatalf("core %d cursor dry at %d", c, i)
					}
					gens[c].Next(&want)
					if got != want {
						t.Fatalf("core %d record %d: tape %+v, live %+v", c, i, got, want)
					}
				}
				if cur.Next(&got) {
					t.Fatalf("core %d cursor not dry after %d records", c, perCore)
				}
				// Reset rewinds to the exact first record.
				cur.Reset()
				first := tape.Cursor(c)
				var a, b Record
				cur.Next(&a)
				first.Next(&b)
				if a != b {
					t.Fatal("Reset did not rewind to the first record")
				}
			}
		})
	}
}

// TestTapeCursorZeroAlloc pins the zero-allocation replay contract.
func TestTapeCursorZeroAlloc(t *testing.T) {
	spec, _ := ByName("oltp-db2")
	spec = spec.Scaled(0.0625)
	tape := NewTape(spec, 5, 1, 50_000)
	cur := tape.Cursor(0)
	var rec Record
	allocs := testing.AllocsPerRun(20_000, func() {
		if !cur.Next(&rec) {
			cur.Reset()
		}
	})
	if allocs != 0 {
		t.Fatalf("cursor Next allocates %.1f per call", allocs)
	}
}

// TestTapeBoundedSource covers segment budgets: workload generators
// fill exactly the budget, and a source that runs dry early yields a
// short segment whose cursor runs dry at the same point.
func TestTapeBoundedSource(t *testing.T) {
	spec, _ := ByName("web-zeus")
	spec = spec.Scaled(0.0625)
	tape := NewTape(spec, 3, 2, 100)
	if tape.Len(0) != 100 || tape.Len(1) != 100 {
		t.Fatalf("segments hold %d/%d records", tape.Len(0), tape.Len(1))
	}
	if tape.Bytes() <= 0 {
		t.Fatal("tape reports no footprint")
	}

	short := encodeSegment(&SliceGenerator{Records: []Record{
		{Block: 7, PC: 1, Instrs: 1, Work: 1},
		{Block: 9, PC: 2, Instrs: 1, Work: 1},
	}}, 100)
	if short.n != 2 {
		t.Fatalf("dry source segment holds %d records, want 2", short.n)
	}
	cur := &Cursor{col: &short, n: short.n}
	var r Record
	if !cur.Next(&r) || !cur.Next(&r) || cur.Next(&r) {
		t.Fatal("short segment cursor did not run dry after 2 records")
	}
}

// TestTapePCDictionaryOverflow forces more than 256 distinct PCs so the
// raw-column fallback engages, and checks the replay is still exact.
func TestTapePCDictionaryOverflow(t *testing.T) {
	recs := make([]Record, 2000)
	for i := range recs {
		recs[i] = Record{
			PC: uint32(i % 700), Block: uint64(i) * 37 % 1024,
			Dep: i%3 == 0, Instrs: uint32(i%90 + 1), Work: uint32(i%50 + 1),
		}
	}
	col := encodeSegment(&SliceGenerator{Records: recs}, uint64(len(recs)))
	if col.pcIdx != nil || col.pcRaw == nil {
		t.Fatal("dictionary did not overflow into the raw column")
	}
	cur := &Cursor{col: &col, n: col.n}
	var got Record
	for i := range recs {
		if !cur.Next(&got) {
			t.Fatalf("cursor dry at %d", i)
		}
		if got != recs[i] {
			t.Fatalf("record %d: %+v != %+v", i, got, recs[i])
		}
	}
}

// TestTapeFileRoundTrip: save→load must be lossless — identical
// metadata, identical columns, identical replay.
func TestTapeFileRoundTrip(t *testing.T) {
	for _, name := range []string{"web-apache", "sci-moldyn"} {
		spec, _ := ByName(name)
		spec = spec.Scaled(0.0625)
		tape := NewTape(spec, 123, 2, 5_000)

		var buf bytes.Buffer
		if err := WriteTape(&buf, tape); err != nil {
			t.Fatal(err)
		}
		got, err := ReadTape(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tape.spec, got.spec) {
			t.Fatalf("%s: spec not preserved: %+v vs %+v", name, got.spec, tape.spec)
		}
		if got.seed != tape.seed || got.perCore != tape.perCore || got.Cores() != tape.Cores() {
			t.Fatalf("%s: metadata not preserved", name)
		}
		if got.Bytes() != tape.Bytes() {
			t.Fatalf("%s: footprint %d != %d", name, got.Bytes(), tape.Bytes())
		}
		for c := 0; c < tape.Cores(); c++ {
			a, b := tape.Cursor(c), got.Cursor(c)
			var ra, rb Record
			for a.Next(&ra) {
				if !b.Next(&rb) || ra != rb {
					t.Fatalf("%s: core %d replay diverged", name, c)
				}
			}
			if b.Next(&rb) {
				t.Fatalf("%s: loaded tape longer than original", name)
			}
		}
	}
}

// TestTapeFileRejectsCorruption exercises the reader's validation.
func TestTapeFileRejectsCorruption(t *testing.T) {
	spec, _ := ByName("web-apache")
	spec = spec.Scaled(0.0625)
	tape := NewTape(spec, 1, 1, 500)
	var buf bytes.Buffer
	if err := WriteTape(&buf, tape); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	truncated := good[:len(good)/2]
	if _, err := ReadTape(bytes.NewReader(truncated)); err == nil {
		t.Fatal("truncated tape accepted")
	}

	badMagic := append([]byte(nil), good...)
	badMagic[0] = 'X'
	if _, err := ReadTape(bytes.NewReader(badMagic)); err == nil {
		t.Fatal("bad magic accepted")
	}

	badVersion := append([]byte(nil), good...)
	badVersion[8] = 0xFF
	if _, err := ReadTape(bytes.NewReader(badVersion)); err == nil {
		t.Fatal("unknown version accepted")
	}

	// Flat record traces are a different format, not a broken tape.
	var flat bytes.Buffer
	if err := WriteAll(&flat, []Record{{Block: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTape(&flat); err == nil {
		t.Fatal("flat record trace accepted as tape")
	}
	var magic [8]byte
	copy(magic[:], good[:8])
	if DetectFormat(magic) != FormatTape {
		t.Fatal("tape magic not detected")
	}
	copy(magic[:], fileMagic[:])
	if DetectFormat(magic) != FormatRecords {
		t.Fatal("record magic not detected")
	}
}

// TestTapeKeyGolden pins the tape address formula: addresses name
// tapes in WithTapeDir and -tape-dir stores, so a changed formula would
// silently orphan every tape on disk.
func TestTapeKeyGolden(t *testing.T) {
	spec, err := ByName("oltp-db2")
	if err != nil {
		t.Fatal(err)
	}
	scn, err := ScenarioByName("phase-flip")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, got, want string
	}{
		{"spec", TapeKey(spec.Scaled(0.0625), "", 42, 4, 10000),
			"986fe9537e3a21fc7e52abd509a7d865e58f2430f8c32cc803339c56bacabe56"},
		{"scenario", TapeKey(Spec{}, scn.Scaled(0.0625).Key(), 42, 4, 10000),
			"c75c9bf1d28106cbb03b30fcdab6d304e66005813bc1096a2b18bf24f714938e"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s tape address %s, want %s", tc.name, tc.got, tc.want)
		}
	}
}
