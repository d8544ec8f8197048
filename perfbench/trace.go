package main

import (
	"context"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"stanoise/internal/cell"
	"stanoise/internal/charlib"
	"stanoise/internal/charstore"
	"stanoise/internal/sim"
)

// Span is one timed call into a layer, recorded by the benchmark around a
// public function of the program. Sim and Allocs are the process-wide
// solver counters and heap allocations over the span: exact attributions
// only while nothing else runs, which is why the sign-off replay is
// serial.
type Span struct {
	Name       string
	ID, Parent int
	Start, End time.Duration // since the tracer was created
	Sim        sim.Counters
	Allocs     uint64
}

func (s Span) dur() time.Duration { return s.End - s.Start }

// Tracer keeps spans in memory. A nil *Tracer records nothing, so the
// untraced runs execute the same calls with tracing off.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Start opens a span under parent (0 for a root) and returns its ID.
func (t *Tracer) Start(name string, parent int) int {
	if t == nil {
		return 0
	}
	c, a := sim.Snapshot(), heapAllocs()
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, ID: len(t.spans) + 1, Parent: parent, Start: now, Sim: c, Allocs: a})
	return len(t.spans)
}

// End closes the span with the given ID.
func (t *Tracer) End(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	c, a := sim.Snapshot(), heapAllocs()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	s.Sim = c.Sub(s.Sim)
	s.Allocs = a - s.Allocs
}

// Spans returns a copy of every span recorded so far.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// byName returns the closed spans with the given name.
func byName(spans []Span, name string) []Span {
	var out []Span
	for _, s := range spans {
		if s.Name == name && s.End > 0 {
			out = append(out, s)
		}
	}
	return out
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
var allocMu sync.Mutex

// heapAllocs is the cumulative count of heap objects allocated.
func heapAllocs() uint64 {
	allocMu.Lock()
	defer allocMu.Unlock()
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// timingStore is the charlib.PersistentStore a traced run attaches in
// place of the bare *charstore.Store. It times and counts every get and
// put and the bytes the store grows by, and it forwards AcquireBuildLease,
// so the cache takes the same LeaseStore path as in the untraced run. The
// cache calls a store in a fixed order for one artefact — get (miss),
// lease, get (miss), build, put — all on the building goroutine, so the
// interval between the last missed get and the put is the
// characterisation time of that artefact.
type timingStore struct {
	inner  *charstore.Store
	tr     *Tracer
	parent atomic.Int64 // span the next store calls belong to (serial replays only)

	mu       sync.Mutex
	bytes0   int64 // store size when wrapped
	gets     int
	hits     int
	puts     int
	getUs    []float64
	putUs    []float64
	missedAt map[string]time.Time
	buildMs  map[string][]float64 // by artefact kind
}

func newTimingStore(inner *charstore.Store, tr *Tracer) *timingStore {
	return &timingStore{inner: inner, tr: tr, bytes0: storeBytes(inner), missedAt: map[string]time.Time{}, buildMs: map[string][]float64{}}
}

// storeBytes is the size of every entry the store holds.
func storeBytes(s *charstore.Store) int64 {
	var n int64
	for _, e := range s.Entries() {
		n += e.Size
	}
	return n
}

func (s *timingStore) Get(kind string, cl *cell.Cell, st cell.State, pin, optsFP string) (any, bool) {
	id := s.tr.Start("charstore.get", int(s.parent.Load()))
	t0 := time.Now()
	v, ok := s.inner.Get(kind, cl, st, pin, optsFP)
	end := time.Now()
	s.tr.End(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets++
	s.getUs = append(s.getUs, float64(end.Sub(t0))/1e3)
	if ok {
		s.hits++
	} else {
		s.missedAt[charlib.CellKey(kind, cl, st, pin, optsFP)] = end
	}
	return v, ok
}

func (s *timingStore) Put(kind string, cl *cell.Cell, st cell.State, pin, optsFP string, v any) error {
	t0 := time.Now()
	key := charlib.CellKey(kind, cl, st, pin, optsFP)
	s.mu.Lock()
	if missed, ok := s.missedAt[key]; ok {
		s.buildMs[kind] = append(s.buildMs[kind], ms(t0.Sub(missed)))
		delete(s.missedAt, key)
	}
	s.mu.Unlock()
	id := s.tr.Start("charstore.put", int(s.parent.Load()))
	err := s.inner.Put(kind, cl, st, pin, optsFP, v)
	s.tr.End(id)
	d := time.Since(t0)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts++
	s.putUs = append(s.putUs, float64(d)/1e3)
	return err
}

func (s *timingStore) AcquireBuildLease(ctx context.Context, kind string, cl *cell.Cell, st cell.State, pin, optsFP string) (func(), error) {
	return s.inner.AcquireBuildLease(ctx, kind, cl, st, pin, optsFP)
}

// metrics adds the charstore.* and per-kind build-time metrics.
func (s *timingStore) metrics(m metricSet) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m.set("charstore.gets", float64(s.gets), "count")
	m.set("charstore.get_p50_us", median(s.getUs), "us")
	m.set("charstore.get_hit_ratio", ratio(float64(s.hits), float64(s.gets)), "ratio")
	m.set("charstore.puts", float64(s.puts), "count")
	m.set("charstore.put_p50_us", median(s.putUs), "us")
	m.set("charstore.bytes_written", float64(storeBytes(s.inner)-s.bytes0), "bytes")
	m.set("charlib.loadcurve_ms", mean(s.buildMs["lc"]), "ms")
	m.set("charlib.proptable_ms", mean(s.buildMs["prop"]), "ms")
	m.set("nrc.curve_ms", mean(s.buildMs["nrc"]), "ms")
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}
