package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"stms"
	"stms/internal/dist"
)

// span is one timed interval at a boundary the benchmark owns: a lab
// cell, an HTTP request, a stream connection, a checkpoint callback, a
// direct sim call or a replay driver. Parent is the span that caused it.
type span struct {
	ID, Parent int64
	Name       string
	Start, End time.Duration // since the tracer started
}

// layer is the module a span's time belongs to: its name up to the
// first '.' or ' '.
func (s span) layer() string {
	if i := strings.IndexAny(s.Name, ". "); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// spanHeader carries the caller's span across an HTTP request, so the
// worker-side span of a job names the coordinator-side one as parent.
const spanHeader = "X-Perfbench-Span"

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced run: every method is a no-op.
type tracer struct {
	t0   time.Time
	mu   sync.Mutex
	next int64
	open map[int64]span
	done []span

	// Figures gathered at the same boundaries.
	cellWalls []time.Duration // lab: one per finished cell
	jobMS     []float64       // dist: POST /jobs round trip
	rpcMS     []float64       // dist: round trip minus the worker's wall_ms
}

func newTracer() *tracer { return &tracer{t0: time.Now(), open: map[int64]span{}} }

func (t *tracer) begin(name string, parent int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.open[t.next] = span{ID: t.next, Parent: parent, Name: name, Start: now}
	return t.next
}

func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.open[id]; ok {
		delete(t.open, id)
		s.End = now
		t.done = append(t.done, s)
	}
}

// labProgress spans each lab cell from its started to its finished
// event and keeps the cell walls.
func (t *tracer) labProgress(parent int64) func(stms.ResultEvent) {
	open := map[string]int64{} // events arrive serialized
	return func(ev stms.ResultEvent) {
		key := ev.Cell.Workload + "/" + ev.Cell.Label
		switch ev.Kind {
		case stms.CellStarted:
			open[key] = t.begin("lab.cell "+key, parent)
		case stms.CellFinished, stms.CellFailed:
			t.end(open[key])
			delete(open, key)
			if ev.Wall > 0 {
				t.mu.Lock()
				t.cellWalls = append(t.cellWalls, ev.Wall)
				t.mu.Unlock()
			}
		}
	}
}

// route names an HTTP path by its first element (/jobs, /tapes/<key>
// → /tapes).
func route(path string) string {
	if i := strings.IndexByte(strings.TrimPrefix(path, "/"), '/'); i >= 0 {
		return path[:i+1]
	}
	return path
}

// transport wraps the coordinator's worker transport: one span per
// request, ended when the response body is drained, and for jobs the
// round trip set against the worker's own wall time.
func (t *tracer) transport(parent int64) http.RoundTripper {
	return &tracedTransport{tr: t, parent: parent, base: dist.BaseTransport(dist.Timeouts{})}
}

type tracedTransport struct {
	tr     *tracer
	parent int64
	base   http.RoundTripper
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	r := route(req.URL.Path)
	id := tt.tr.begin("dist.rpc "+req.Method+" "+r, tt.parent)
	start := time.Now()
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		tt.tr.end(id)
		return nil, err
	}
	body := &spanBody{rc: resp.Body, keep: r == "/jobs"}
	body.done = func() {
		tt.tr.end(id)
		if r != "/jobs" || req.Method != http.MethodPost {
			return
		}
		rt := float64(time.Since(start).Microseconds()) / 1000
		wall, ok := workerWallMS(body.buf.Bytes())
		tt.tr.mu.Lock()
		defer tt.tr.mu.Unlock()
		tt.tr.jobMS = append(tt.tr.jobMS, rt)
		if ok {
			tt.tr.rpcMS = append(tt.tr.rpcMS, rt-wall)
		}
	}
	resp.Body = body
	return resp, nil
}

// spanBody copies a response as it is read and reports when it ends.
type spanBody struct {
	rc   io.ReadCloser
	keep bool // copy the body: job event streams only
	buf  bytes.Buffer
	once sync.Once
	done func()
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	if b.keep {
		b.buf.Write(p[:n])
	}
	if err != nil {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.once.Do(b.done)
	return b.rc.Close()
}

// workerWallMS finds the worker-measured wall time in a job's ndjson
// event stream: the result of its "done" event.
func workerWallMS(stream []byte) (float64, bool) {
	sc := bufio.NewScanner(bytes.NewReader(stream))
	sc.Buffer(nil, 64<<20)
	for sc.Scan() {
		var ev dist.Event
		if json.Unmarshal(sc.Bytes(), &ev) == nil && ev.Kind == "done" && ev.Result != nil {
			return ev.Result.WallMS, true
		}
	}
	return 0, false
}

// handler wraps a worker: one span per request, parented on the
// coordinator's span when the request carries it.
func (t *tracer) handler(h http.Handler, parent int64) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p := parent
		if v, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64); err == nil {
			p = v
		}
		id := t.begin("dist.handler "+r.Method+" "+route(r.URL.Path), p)
		defer t.end(id)
		h.ServeHTTP(w, r)
	})
}

// tracedListener spans every stream connection from accept to close.
type tracedListener struct {
	net.Listener
	tr     *tracer
	parent int64
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, tr: l.tr, id: l.tr.begin("stream.conn", l.parent)}, nil
}

type tracedConn struct {
	net.Conn
	tr   *tracer
	id   int64
	once sync.Once
}

func (c *tracedConn) Close() error {
	c.once.Do(func() { c.tr.end(c.id) })
	return c.Conn.Close()
}

// spans returns the finished spans ordered by start.
func (t *tracer) spans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.done...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].End > out[j].End
	})
	return out
}

// selfTimes sums, per layer, each span's duration minus the part of it
// its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := map[string]time.Duration{}
	for _, s := range spans {
		covered := time.Duration(0)
		cur, curEnd := time.Duration(-1), time.Duration(-1)
		for _, c := range children[s.ID] { // ordered by start
			st, en := max(c.Start, s.Start), min(c.End, s.End)
			if en <= st {
				continue
			}
			if st > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = st, en
			} else if en > curEnd {
				curEnd = en
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		self[s.layer()] += s.End - s.Start - covered
	}
	return self
}

// writeChrome writes the spans as Chrome trace-event JSON, which
// Perfetto and chrome://tracing open. Overlapping spans go on separate
// tracks so every track nests properly.
func writeChrome(path string, spans []span) error {
	type event struct {
		Name string           `json:"name"`
		Cat  string           `json:"cat"`
		Ph   string           `json:"ph"`
		TS   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		PID  int              `json:"pid"`
		TID  int              `json:"tid"`
		Args map[string]int64 `json:"args"`
	}
	var lanes [][]time.Duration // per track: end times of the open spans
	var events []event
	for _, s := range spans {
		lane := -1
		for i := range lanes {
			st := lanes[i]
			for len(st) > 0 && st[len(st)-1] <= s.Start {
				st = st[:len(st)-1]
			}
			lanes[i] = st
			if len(st) == 0 || st[len(st)-1] >= s.End {
				lane = i
				break
			}
		}
		if lane < 0 {
			lanes = append(lanes, nil)
			lane = len(lanes) - 1
		}
		lanes[lane] = append(lanes[lane], s.End)
		events = append(events, event{
			Name: s.Name, Cat: s.layer(), Ph: "X",
			TS:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			PID: 1, TID: lane + 1,
			Args: map[string]int64{"id": s.ID, "parent": s.Parent},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
