package lab

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"stms/internal/dist"
	"stms/internal/sim"
)

// EventKind classifies a ResultEvent.
type EventKind int

// Cell lifecycle events.
const (
	CellStarted EventKind = iota
	CellFinished
	CellFailed
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case CellStarted:
		return "started"
	case CellFinished:
		return "finished"
	case CellFailed:
		return "failed"
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// ResultEvent streams per-cell progress out of Lab.Run. Events are
// delivered serialized (one at a time) to the session's progress sink.
type ResultEvent struct {
	Kind  EventKind
	Cell  Cell
	Done  int           // cells completed (finished, failed or memo-hit) so far
	Total int           // cells in the plan
	Res   *sim.Results  // CellFinished only (read-only; shared with the Matrix)
	Err   error         // CellFailed only
	Wall  time.Duration // CellFinished/CellFailed: wall-clock cell time
	Note  string        // dispatch degradation note (retries, breaker skips, local fallback)
}

// Run executes the plan's cells across the session's worker pool and
// returns the indexed result Matrix. Per-cell results are deterministic
// functions of the cell configuration, so the Matrix is identical
// regardless of parallelism. Cells already in the session memo — or
// duplicated within the plan — are simulated only once.
//
// Cancelling ctx stops the workers promptly (in-flight simulations poll
// the context every few thousand records); Run then returns the partial
// Matrix alongside ctx.Err(). A cell-level failure (invalid per-cell
// config) does not abort sibling cells: the whole matrix still
// executes, the failure is recorded on its CellResult, and Run returns
// the first such error alongside the otherwise-complete Matrix.
func (l *Lab) Run(ctx context.Context, p *RunPlan) (*Matrix, error) {
	if p == nil {
		return nil, fmt.Errorf("lab: nil plan")
	}
	if p.err != nil {
		return nil, p.err
	}
	m := &Matrix{
		Workloads: append([]string(nil), p.Workloads...),
		Labels:    append([]string(nil), p.Labels...),
		Cells:     make([]CellResult, len(p.Cells)),
	}
	st := &runState{lab: l, m: m, total: len(p.Cells), keys: make([]string, len(p.Cells)), dups: make(map[int][]int)}

	// Serve memo hits first (emitting their finished events
	// immediately), collapse identical cells within the plan onto one
	// representative, and fan the rest out over the pool.
	var todo []int
	rep := make(map[string]int) // cell key → representative index in todo
	for i := range p.Cells {
		cell := p.Cells[i]
		m.Cells[i] = CellResult{Cell: cell}
		key, err := cell.key()
		if err != nil {
			m.Cells[i].Err = err
			st.emit(ResultEvent{Kind: CellFailed, Cell: cell, Err: err})
			continue
		}
		st.keys[i] = key
		if o, ok := l.lookup(key); ok {
			m.Cells[i].Res, m.Cells[i].Sampled = o.Res, o.Sampled
			st.emit(ResultEvent{Kind: CellFinished, Cell: cell, Res: o.Res})
			continue
		}
		if r, ok := rep[key]; ok {
			st.dups[r] = append(st.dups[r], i)
			continue
		}
		rep[key] = i
		todo = append(todo, i)
	}

	par := l.par
	if par > len(todo) {
		par = len(todo)
	}
	if par < 1 {
		par = 1
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				st.runCell(ctx, i)
			}
		}()
	}
feed:
	for _, i := range todo {
		select {
		case <-ctx.Done():
			break feed
		case idx <- i:
		}
	}
	close(idx)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return m, err
	}
	return m, m.Err()
}

// dispatch runs a cell's job on the session's worker pool when one is
// configured (WithWorkers) and in process otherwise. Both paths execute
// it through dist.ExecuteJob, so either produces bit-identical results;
// the remote pool itself degrades to in-process execution when every
// attempt fails. The note records any remote degradation for the
// progress stream.
func (l *Lab) dispatch(ctx context.Context, cell *Cell) (*dist.Result, string, error) {
	job := cell.job()
	if l.remote == nil {
		r, err := dist.ExecuteJob(ctx, job, l.tapes, nil, nil, nil)
		return r, "", err
	}
	return l.remote.run(ctx, l, job)
}

// runState carries the per-Run bookkeeping shared by the workers.
type runState struct {
	lab   *Lab
	m     *Matrix
	total int
	keys  []string      // cell index → cell key
	dups  map[int][]int // representative cell index → identical cells

	evMu sync.Mutex
	done int
}

// emit counts completions and delivers the event to the session sink,
// serialized.
func (st *runState) emit(ev ResultEvent) {
	st.evMu.Lock()
	defer st.evMu.Unlock()
	if ev.Kind != CellStarted {
		st.done++
	}
	if st.lab.onEvent == nil {
		return
	}
	ev.Done = st.done
	ev.Total = st.total
	st.lab.onEvent(ev)
}

// runCell executes one cell and records its outcome.
func (st *runState) runCell(ctx context.Context, i int) {
	cr := &st.m.Cells[i]
	cell := cr.Cell
	st.emit(ResultEvent{Kind: CellStarted, Cell: cell})
	start := time.Now()

	var r *dist.Result
	var err error
	var note string
	func() {
		// The simulator substrate panics on internal invariant breaks;
		// contain those to the failing cell.
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("lab: cell %s/%s panicked: %v", cell.Workload, cell.Label, p)
			}
		}()
		r, note, err = st.lab.dispatch(ctx, &cell)
	}()

	cr.Wall = time.Since(start)
	if err != nil {
		if ctx.Err() == nil {
			// Real cell failure, not cancellation fallout: record it on
			// the representative and every identical cell.
			cr.Err = err
			st.emit(ResultEvent{Kind: CellFailed, Cell: cell, Err: err, Wall: cr.Wall, Note: note})
			for _, d := range st.dups[i] {
				dr := &st.m.Cells[d]
				dr.Err = err
				st.emit(ResultEvent{Kind: CellFailed, Cell: dr.Cell, Err: err})
			}
		}
		return
	}
	// One rule splits every cell's wall time, local or remote: the
	// executor's WallMS is simulation, the rest (tape access, network,
	// queueing, retries) is overhead.
	atomic.AddInt64(&st.lab.simNS, int64(min(cr.Wall, time.Duration(r.WallMS*float64(time.Millisecond)))))
	cr.Res, cr.Sampled = &r.Res, r.Sampled
	if r.Sampled != nil {
		cr.Res = &r.Sampled.Results
	}
	st.lab.store(st.keys[i], outcome{Res: cr.Res, Sampled: cr.Sampled})
	st.emit(ResultEvent{Kind: CellFinished, Cell: cell, Res: cr.Res, Wall: cr.Wall, Note: note})
	// Identical plan cells share the result without re-simulating.
	for _, d := range st.dups[i] {
		dr := &st.m.Cells[d]
		dr.Res = cr.Res
		dr.Sampled = cr.Sampled
		st.emit(ResultEvent{Kind: CellFinished, Cell: dr.Cell, Res: cr.Res})
	}
}
