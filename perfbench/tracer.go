package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer's public function. Spans of one
// round or request share Req; Parent is the span that caused this one.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and layer counters in memory; write dumps them at
// exit. A nil tracer or one switched off records nothing, so the
// untraced runs pay a nil check per boundary.
type tracer struct {
	t0     time.Time
	on     atomic.Bool
	nextID atomic.Uint64

	// curRound and curOp are the spans the store and sink wrappers, which
	// the program calls back, attach their spans to.
	curRound atomic.Uint64
	curOp    atomic.Uint64

	mu       sync.Mutex
	spans    []span
	counters map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counters: make(map[string]float64)}
}

// tok is an open span; end closes it.
type tok struct {
	t      *tracer
	name   string
	id     uint64
	parent uint64
	req    uint64
	start  time.Time
}

// begin opens a span. req 0 makes the span its own request.
func (t *tracer) begin(name string, parent, req uint64) tok {
	if t == nil || !t.on.Load() {
		return tok{}
	}
	id := t.nextID.Add(1)
	if req == 0 {
		req = id
	}
	return tok{t: t, name: name, id: id, parent: parent, req: req, start: time.Now()}
}

// end records the span and returns its duration (0 when not tracing).
func (k tok) end() time.Duration {
	if k.t == nil {
		return 0
	}
	now := time.Now()
	k.t.mu.Lock()
	k.t.spans = append(k.t.spans, span{
		Name: k.name, ID: k.id, Parent: k.parent, Req: k.req,
		Start: int64(k.start.Sub(k.t.t0)), End: int64(now.Sub(k.t.t0)),
	})
	k.t.mu.Unlock()
	return now.Sub(k.start)
}

// count adds v to a layer counter.
func (t *tracer) count(name string, v float64) {
	if t == nil || !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.counters[name] += v
	t.mu.Unlock()
}

// durations returns every recorded duration of the named span.
func (t *tracer) durations(name string) samples {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out samples
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// perReq sums the named span's durations per request id, so several
// calls inside one round (one ObserveBatch per switch) make one sample.
func (t *tracer) perReq(name string) samples {
	t.mu.Lock()
	defer t.mu.Unlock()
	byReq := make(map[uint64]float64)
	var order []uint64
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		if _, ok := byReq[s.Req]; !ok {
			order = append(order, s.Req)
		}
		byReq[s.Req] += float64(s.End-s.Start) / 1e6
	}
	out := make(samples, 0, len(order))
	for _, r := range order {
		out = append(out, byReq[r])
	}
	return out
}

func (t *tracer) counter(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counters[name]
}

// write dumps the spans and counters as one JSON document.
func (t *tracer) write(path string, fingerprint map[string]any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(map[string]any{
		"fingerprint": fingerprint,
		"spans":       t.spans,
		"counters":    t.counters,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// roundID and opID return the open round and op spans (0 untraced).
func (t *tracer) roundID() uint64 {
	if t == nil {
		return 0
	}
	return t.curRound.Load()
}

func (t *tracer) opID() uint64 {
	if t == nil {
		return 0
	}
	return t.curOp.Load()
}

// setRound and setOp publish the open round and op spans.
func (t *tracer) setRound(id uint64) {
	if t != nil {
		t.curRound.Store(id)
	}
}

func (t *tracer) setOp(id uint64) {
	if t != nil {
		t.curOp.Store(id)
	}
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }
