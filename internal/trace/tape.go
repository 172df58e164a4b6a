package trace

// Columnar trace tapes: a structure-of-arrays materialization of one
// bounded multi-core trace. A Tape is built once per
// (spec, seed, cores, records-per-core) identity — per-core segments
// generate in parallel, since generation is a pure per-core function —
// and then replayed any number of times through zero-allocation Cursors.
// Replay is a sequential array walk (varint decode + column loads), an
// order of magnitude cheaper than re-running the generator state machine
// and its RNG, and every consumer of the same tape observes literally
// identical records: the lab's run matrix materializes each workload
// once and shares it across every variant cell.
//
// Column layout, per core:
//
//   - data: one interleaved byte stream per record — the block number as
//     a zigzag-varint delta against the previous block (scans collapse
//     to one byte; dataset hops to a few), then one (Instrs, Work) cost
//     byte: an index into a per-core pair dictionary, or the 0xFF
//     escape followed by both values as uvarints. Memory records — the
//     bulk of every workload — share a single constant cost pair, so
//     their whole cost decode is one table load;
//   - PC: a per-core dictionary (u8 indices) — generators emit a handful
//     of static PCs — with a raw u32 column as overflow fallback;
//   - Dep: a bitset, one bit per record.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
)

// costEscape in the cost byte announces inline uvarint Instrs and Work
// instead of a dictionary pair; the pair dictionary holds at most 255
// entries so the escape value is unambiguous.
const costEscape = 0xFF

// tapeColumns is one core's encoded record segment.
type tapeColumns struct {
	n      uint64   // records in this segment
	data   []byte   // interleaved block-delta varints and cost bytes
	pairs  []uint64 // cost-pair dictionary: Instrs<<32 | Work
	pcDict []uint32 // PC dictionary (dict encoding)
	pcIdx  []uint8  // per-record dictionary index; nil if overflowed
	pcRaw  []uint32 // per-record raw PCs; nil unless dictionary overflowed
	dep    []uint64 // dependence bitset
}

// Tape is an immutable columnar materialization of one bounded trace:
// cores × perCore records of the scaled spec — or scaled scenario — at
// the given seed. Safe for concurrent replay (Cursors share the tape
// read-only).
type Tape struct {
	spec    Spec // scaled spec the records were generated from
	seed    uint64
	perCore uint64
	cores   []tapeColumns
	bytes   int64

	// Scenario provenance: nil/empty for plain spec tapes. The spec
	// field holds the scenario's EffectiveSpec; marks locate phase
	// starts so replay windows statistics exactly as live generation.
	scenario *Scenario
	marks    []PhaseMark
}

// NewTape materializes perCore records for each of cores generators of
// the (already scaled) spec at seed. Per-core segments are generated
// concurrently; the result is deterministic and identical to consuming
// NewGenerator(NewLibrary(spec, seed), core, seed) directly.
func NewTape(spec Spec, seed uint64, cores int, perCore uint64) *Tape {
	if cores <= 0 {
		panic(fmt.Sprintf("trace: tape needs cores > 0, got %d", cores))
	}
	lib := NewLibrary(spec, seed)
	t := &Tape{
		spec:    spec,
		seed:    seed,
		perCore: perCore,
		cores:   make([]tapeColumns, cores),
	}
	// Generators are constructed sequentially (iteration-stream priming
	// mutates the library, in ascending core order); the encode loops
	// then run in parallel over disjoint per-core state.
	gens := make([]Generator, cores)
	for c := range gens {
		gens[c] = NewGenerator(lib, c, seed)
	}
	t.encode(gens)
	return t
}

// NewScenarioTape materializes perCore records for each of cores of the
// (already scaled) scenario at seed. Phase boundaries are recorded as
// marks; replaying the tape — including through the on-disk STMSTAPE
// format — is bit-identical to live scenario generation. Invalid
// scenarios panic, like invalid specs in NewTape; the lab converts
// panics to cell errors.
func NewScenarioTape(scn Scenario, seed uint64, cores int, perCore uint64) *Tape {
	if cores <= 0 {
		panic(fmt.Sprintf("trace: tape needs cores > 0, got %d", cores))
	}
	gens, marks, err := scn.Generators(seed, cores, perCore)
	if err != nil {
		panic(err)
	}
	t := &Tape{
		spec:     scn.EffectiveSpec(cores, perCore),
		seed:     seed,
		perCore:  perCore,
		cores:    make([]tapeColumns, cores),
		scenario: &scn,
		marks:    marks,
	}
	t.encode(gens)
	return t
}

// encode drains the per-core generators into columns concurrently (the
// generators' mutable state is disjoint per core by construction).
func (t *Tape) encode(gens []Generator) {
	var wg sync.WaitGroup
	for c := range gens {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t.cores[c] = encodeSegment(gens[c], t.perCore)
		}(c)
	}
	wg.Wait()
	for i := range t.cores {
		t.bytes += t.cores[i].footprint()
	}
}

// encodeSegment drains up to perCore records from gen into columns.
func encodeSegment(gen Generator, perCore uint64) tapeColumns {
	col := tapeColumns{
		data:  make([]byte, 0, perCore*4),
		pcIdx: make([]uint8, 0, perCore),
		dep:   make([]uint64, (perCore+63)/64),
	}
	dict := make(map[uint32]int)
	pairDict := make(map[uint64]int)
	var prev uint64
	var rec Record
	for col.n < perCore && gen.Next(&rec) {
		col.data = appendUvarint(col.data, zigzag(int64(rec.Block-prev)))
		prev = rec.Block
		pair := uint64(rec.Instrs)<<32 | uint64(rec.Work)
		if pi, ok := pairDict[pair]; ok {
			col.data = append(col.data, uint8(pi))
		} else if len(col.pairs) < costEscape {
			pairDict[pair] = len(col.pairs)
			col.data = append(col.data, uint8(len(col.pairs)))
			col.pairs = append(col.pairs, pair)
		} else {
			// Rare cost pair past the dictionary capacity (jittered gap
			// records): escape to inline values.
			col.data = append(col.data, costEscape)
			col.data = appendUvarint(col.data, uint64(rec.Instrs))
			col.data = appendUvarint(col.data, uint64(rec.Work))
		}
		if col.pcIdx != nil {
			if idx, ok := dict[rec.PC]; ok {
				col.pcIdx = append(col.pcIdx, uint8(idx))
			} else if len(col.pcDict) < 256 {
				dict[rec.PC] = len(col.pcDict)
				col.pcIdx = append(col.pcIdx, uint8(len(col.pcDict)))
				col.pcDict = append(col.pcDict, rec.PC)
			} else {
				// Dictionary overflow (custom workloads with huge PC
				// sets): fall back to a raw column, rebuilt from the
				// dictionary-encoded prefix.
				col.pcRaw = make([]uint32, col.n, perCore)
				for i, di := range col.pcIdx {
					col.pcRaw[i] = col.pcDict[di]
				}
				col.pcRaw = append(col.pcRaw, rec.PC)
				col.pcIdx, col.pcDict = nil, nil
			}
		} else {
			col.pcRaw = append(col.pcRaw, rec.PC)
		}
		if rec.Dep {
			col.dep[col.n>>6] |= 1 << (col.n & 63)
		}
		col.n++
	}
	return col
}

func (c *tapeColumns) footprint() int64 {
	return int64(len(c.data)) + int64(len(c.pairs))*8 +
		int64(len(c.pcDict))*4 + int64(len(c.pcIdx)) +
		int64(len(c.pcRaw))*4 + int64(len(c.dep))*8
}

// TapeKey is the content address of a trace identity: the hex sha256 of
// (scaled spec or scenario, seed, cores, per-core record budget) —
// everything that determines a materialized tape, and nothing that
// does not. Exactly one of spec (already scaled) and scenarioKey (a
// scaled Scenario.Key) is meaningful; the other is its zero value.
// Addresses name tapes in every store tier and on disk, so the
// formula is part of the on-disk format.
func TapeKey(spec Spec, scenarioKey string, seed uint64, cores int, perCore uint64) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("spec=%+v|scn=%s|seed=%d|cores=%d|per=%d",
		spec, scenarioKey, seed, cores, perCore)))
	return hex.EncodeToString(sum[:])
}

// Key re-derives the tape's content address from the identity it
// carries, so a store tier that receives a tape can verify the address
// instead of trusting the name it arrived under.
func (t *Tape) Key() string {
	if t.scenario != nil {
		return TapeKey(Spec{}, t.scenario.Key(), t.seed, len(t.cores), t.perCore)
	}
	return TapeKey(t.spec, "", t.seed, len(t.cores), t.perCore)
}

// Spec returns the (scaled) workload spec the tape was generated from;
// for scenario tapes, the scenario's EffectiveSpec.
func (t *Tape) Spec() Spec { return t.spec }

// Scenario returns the scaled scenario the tape materializes, or nil
// for plain spec tapes.
func (t *Tape) Scenario() *Scenario { return t.scenario }

// Marks returns the tape's phase-start offsets (per core), nil for
// plain spec tapes and single-phase scenarios. The slice is shared;
// callers must not mutate it.
func (t *Tape) Marks() []PhaseMark { return t.marks }

// Seed returns the trace seed.
func (t *Tape) Seed() uint64 { return t.seed }

// Cores returns the number of per-core segments.
func (t *Tape) Cores() int { return len(t.cores) }

// PerCore returns the record budget each segment was materialized with.
// Segments from never-dry generators hold exactly this many records.
func (t *Tape) PerCore() uint64 { return t.perCore }

// Len returns the number of records actually held for core.
func (t *Tape) Len(core int) uint64 { return t.cores[core].n }

// Bytes returns the approximate in-memory footprint of the columns, for
// cache accounting.
func (t *Tape) Bytes() int64 { return t.bytes }

// Cursor returns a new replay cursor over core's segment, positioned at
// the first record. Cursors are independent; Next allocates nothing.
func (t *Tape) Cursor(core int) *Cursor {
	return t.CursorN(core, t.cores[core].n)
}

// CursorN returns a cursor over core's segment that runs dry after at
// most n records — a built-in Limit, without the wrapper's extra
// interface hop on the simulator's per-record path.
func (t *Tape) CursorN(core int, n uint64) *Cursor {
	if core < 0 || core >= len(t.cores) {
		panic(fmt.Sprintf("trace: tape cursor for core %d of %d", core, len(t.cores)))
	}
	col := &t.cores[core]
	if n > col.n {
		n = col.n
	}
	return &Cursor{col: col, n: n}
}

// Cursor replays one core's tape segment; it implements Generator and
// runs dry after its record bound (Tape.Len(core), or the CursorN cap).
type Cursor struct {
	col  *tapeColumns
	n    uint64
	pos  uint64
	off  int // read position in col.data
	prev uint64
}

// Reset rewinds the cursor to the first record, keeping its bound.
func (cu *Cursor) Reset() { *cu = Cursor{col: cu.col, n: cu.n} }

// Remaining returns how many records are left.
func (cu *Cursor) Remaining() uint64 { return cu.n - cu.pos }

// Next implements Generator: it decodes the next record into r.
func (cu *Cursor) Next(r *Record) bool {
	col := cu.col
	if cu.pos >= cu.n {
		return false
	}
	d, off := readUvarint(col.data, cu.off)
	cu.prev += uint64(unzigzag(d))
	r.Block = cu.prev
	if pi := col.data[off]; pi != costEscape {
		pair := col.pairs[pi]
		r.Instrs = uint32(pair >> 32)
		r.Work = uint32(pair)
		off++
	} else {
		var v uint64
		v, off = readUvarint(col.data, off+1)
		r.Instrs = uint32(v)
		v, off = readUvarint(col.data, off)
		r.Work = uint32(v)
	}
	cu.off = off
	if col.pcIdx != nil {
		r.PC = col.pcDict[col.pcIdx[cu.pos]]
	} else {
		r.PC = col.pcRaw[cu.pos]
	}
	r.Dep = col.dep[cu.pos>>6]>>(cu.pos&63)&1 != 0
	cu.pos++
	return true
}

// ReadFrame implements FrameReader: it decodes the next run of records
// straight from the tape columns into the frame's columns in one pass —
// no per-record virtual call, column bases hoisted, and the dependence
// bitset expanded word-at-a-time. The sequence is exactly what Next
// would produce; Cursor state advances past the decoded run.
func (cu *Cursor) ReadFrame(f *Frame) int {
	col := cu.col
	n := uint64(f.cap)
	if rem := cu.n - cu.pos; rem < n {
		n = rem
	}
	if n == 0 {
		f.n = 0
		return 0
	}
	data := col.data
	pairs := col.pairs
	off := cu.off
	prev := cu.prev
	blocks := f.Block[:n]
	instrs := f.Instrs[:n]
	works := f.Work[:n]
	for i := range blocks {
		// Inline single-byte uvarint fast path (most deltas and all cost
		// bytes are one byte).
		var d uint64
		if c := data[off]; c < 0x80 {
			d = uint64(c)
			off++
		} else {
			d, off = readUvarint(data, off)
		}
		prev += uint64(unzigzag(d))
		blocks[i] = prev
		if pi := data[off]; pi != costEscape {
			pair := pairs[pi]
			instrs[i] = uint32(pair >> 32)
			works[i] = uint32(pair)
			off++
		} else {
			var v uint64
			v, off = readUvarint(data, off+1)
			instrs[i] = uint32(v)
			v, off = readUvarint(data, off)
			works[i] = uint32(v)
		}
	}
	pos := cu.pos
	pcs := f.PC[:n]
	if col.pcIdx != nil {
		dict := col.pcDict
		for i, di := range col.pcIdx[pos : pos+n] {
			pcs[i] = dict[di]
		}
	} else {
		copy(pcs, col.pcRaw[pos:pos+n])
	}
	deps := f.Dep[:n]
	for i := range deps {
		j := pos + uint64(i)
		deps[i] = col.dep[j>>6]>>(j&63)&1 != 0
	}
	cu.off = off
	cu.prev = prev
	cu.pos = pos + n
	f.n = int(n)
	return int(n)
}

// zigzag maps signed deltas onto small unsigned values.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendUvarint appends v in LEB128 (as encoding/binary does, without
// the fixed-size scratch buffer round trip).
func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// readUvarint decodes the uvarint at b[off:], returning the value and
// the offset just past it. The single-byte case — most records — stays
// on a branchless fast path.
func readUvarint(b []byte, off int) (uint64, int) {
	c := b[off]
	if c < 0x80 {
		return uint64(c), off + 1
	}
	v := uint64(c & 0x7f)
	for shift := uint(7); ; shift += 7 {
		off++
		c = b[off]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, off + 1
		}
	}
}
