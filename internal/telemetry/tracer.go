// Hierarchical causal tracing: a Span tree rooted at study scope and
// propagated via context.Context through runner jobs, technique rounds,
// candidate evaluations, and individual SAT solves.
//
// The discipline mirrors Collector: everything is nil-safe. When no sink is
// installed, StartSpan returns nil, Child on a nil *Span returns nil, and
// every method on a nil *Span is a no-op branch — untraced runs pay one nil
// check per instrumentation point and allocate nothing.
//
// ID scheme: the registry allocates span IDs from one atomic counter; a root
// span's ID doubles as the trace ID, and children inherit it. IDs are
// rendered as lowercase hex in SpanRecord. Child is safe to call
// concurrently on one parent (goroutines may fan out under one span), but
// SetAttr/SetMetric/SetLane must only be called by the goroutine that owns
// the span, and only before End.
package telemetry

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one node of a run's causal trace tree. The zero value is not
// useful; obtain spans from Registry.StartSpan or Span.Child.
type Span struct {
	reg       *Registry
	parentRef *Span

	trace  uint64
	id     uint64
	parent uint64 // 0 for roots
	kind   string
	start  time.Time
	lane   int // set via SetLane before the span is shared; inherited by children

	// childNs accumulates the durations of direct children, so self time is
	// duration - childNs at End.
	childNs atomic.Int64
	ended   atomic.Bool

	mu      sync.Mutex
	attrs   map[string]string
	metrics map[string]int64
}

// SeedSpanIDs offsets the registry's span-ID counter so that traces from
// several cooperating processes stay distinguishable after merging. Every
// process allocates IDs from 1 by default, so two worker processes would
// emit colliding trace IDs; a sharded-study worker calls SeedSpanIDs with a
// base derived from its worker identity before starting any span. Call once,
// before the first StartSpan.
func (r *Registry) SeedSpanIDs(base uint64) {
	if r == nil {
		return
	}
	r.spanIDs.Store(base)
}

// StartSpan opens a new root span (a new trace). It returns nil — and all
// downstream instrumentation stays dormant — unless a sink is installed.
func (r *Registry) StartSpan(kind string) *Span {
	if r == nil || !r.Tracing() {
		return nil
	}
	id := r.spanIDs.Add(1)
	s := &Span{reg: r, trace: id, id: id, kind: kind, start: time.Now()}
	r.trackSpan(s)
	return s
}

// Child opens a sub-span. Safe for concurrent use on one parent; returns nil
// on a nil receiver so untraced call sites stay free.
func (s *Span) Child(kind string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{
		reg:       s.reg,
		parentRef: s,
		trace:     s.trace,
		id:        s.reg.spanIDs.Add(1),
		parent:    s.id,
		kind:      kind,
		start:     time.Now(),
		lane:      s.lane,
	}
	s.reg.trackSpan(c)
	return c
}

// SetAttr attaches a string attribute (e.g. technique, spec, status).
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = map[string]string{}
	}
	s.attrs[key] = value
	s.mu.Unlock()
}

// SetMetric attaches an integer metric (e.g. conflicts, candidates).
func (s *Span) SetMetric(key string, value int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.metrics == nil {
		s.metrics = map[string]int64{}
	}
	s.metrics[key] = value
	s.mu.Unlock()
}

// SetLane assigns the span (and, by inheritance, its future children) to a
// display lane — a worker index rendered as a Perfetto track. Call before
// handing the span to another goroutine.
func (s *Span) SetLane(lane int) {
	if s == nil {
		return
	}
	s.lane = lane
}

// Lane reads the display lane (0 for nil).
func (s *Span) Lane() int {
	if s == nil {
		return 0
	}
	return s.lane
}

// Kind reads the span kind ("" for nil).
func (s *Span) Kind() string {
	if s == nil {
		return ""
	}
	return s.kind
}

// Start reads the span's start time (zero for nil).
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// Attr reads one attribute ("" when absent or nil span).
func (s *Span) Attr(key string) string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.attrs[key]
}

// TraceID is the hex trace ID shared by every span in the tree.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return formatSpanID(s.trace)
}

// ID is the span's own hex ID.
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	return formatSpanID(s.id)
}

// ParentID is the parent's hex ID ("" for roots and nil spans).
func (s *Span) ParentID() string {
	if s == nil || s.parent == 0 {
		return ""
	}
	return formatSpanID(s.parent)
}

// End closes the span and emits its SpanRecord to the sink. Ending twice
// (or ending nil) is a no-op; attributes must not be touched afterwards.
func (s *Span) End() {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	dur := time.Since(s.start)
	rec := SpanRecord{
		Name:        s.kind,
		TraceID:     formatSpanID(s.trace),
		SpanID:      formatSpanID(s.id),
		ParentID:    s.ParentID(),
		Lane:        s.lane,
		StartUnixNs: s.reg.unixNs(s.start),
		DurationNs:  dur.Nanoseconds(),
	}
	s.mu.Lock()
	if len(s.attrs) > 0 {
		rec.Attrs = s.attrs
	}
	if len(s.metrics) > 0 {
		rec.Metrics = s.metrics
	}
	s.mu.Unlock()
	s.finish(dur)
	if sink := s.reg.currentSink(); sink != nil {
		sink.Record(rec)
	}
}

// finish propagates this span's duration into the parent's child-time
// accumulator and, when live tracking is on, retires it from the active set
// and folds its self time into the per-kind totals.
func (s *Span) finish(dur time.Duration) {
	if s.parentRef != nil {
		s.parentRef.childNs.Add(dur.Nanoseconds())
	}
	if !s.reg.trackActive.Load() {
		return
	}
	s.reg.active.Delete(s)
	self := dur.Nanoseconds() - s.childNs.Load()
	if self < 0 {
		self = 0
	}
	v, ok := s.reg.kindSelf.Load(s.kind)
	if !ok {
		v, _ = s.reg.kindSelf.LoadOrStore(s.kind, &atomic.Int64{})
	}
	v.(*atomic.Int64).Add(self)
}

// trackSpan registers a just-started span with the live tracker.
func (r *Registry) trackSpan(s *Span) {
	if r.trackActive.Load() {
		r.active.Store(s, struct{}{})
	}
}

// TrackActive toggles live span bookkeeping (ActiveSpans, KindSelfTimes).
// The dashboard turns it on; plain traced runs leave it off and skip the
// map traffic entirely.
func (r *Registry) TrackActive(on bool) {
	if r == nil {
		return
	}
	r.trackActive.Store(on)
}

// ActiveSpans snapshots the in-flight spans (only populated while
// TrackActive is on). Order is unspecified.
func (r *Registry) ActiveSpans() []*Span {
	if r == nil {
		return nil
	}
	var out []*Span
	r.active.Range(func(k, _ any) bool {
		out = append(out, k.(*Span))
		return true
	})
	return out
}

// ActiveParent exposes the parent link for live-dashboard ancestry walks
// (nil for roots and nil spans).
func (s *Span) ActiveParent() *Span {
	if s == nil {
		return nil
	}
	return s.parentRef
}

// KindSelfTimes snapshots cumulative self time (ns) per span kind, gathered
// while TrackActive is on.
func (r *Registry) KindSelfTimes() map[string]int64 {
	if r == nil {
		return nil
	}
	out := map[string]int64{}
	r.kindSelf.Range(func(k, v any) bool {
		out[k.(string)] = v.(*atomic.Int64).Load()
		return true
	})
	return out
}

func formatSpanID(id uint64) string { return strconv.FormatUint(id, 16) }

// spanCtxKey carries the current *Span through context.Context.
type spanCtxKey struct{}

// ContextWithSpan binds a span to the context. A nil span returns ctx
// unchanged, so untraced runs never pay for a context wrapper.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext extracts the bound span (nil when absent).
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// StartChild opens a child of the context's span and returns a context bound
// to it. With no span in ctx it returns (ctx, nil) — a free no-op.
func StartChild(ctx context.Context, kind string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	s := parent.Child(kind)
	return context.WithValue(ctx, spanCtxKey{}, s), s
}

// Discard is a SpanSink that drops every record. Installing it enables span
// construction (Registry.Tracing reports true) without writing anywhere —
// the -dashboard flag uses it when no trace file is requested.
var Discard SpanSink = discardSink{}

type discardSink struct{}

func (discardSink) Record(SpanRecord) {}

// multiSink fans one span stream out to several sinks in order.
type multiSink []SpanSink

func (m multiSink) Record(rec SpanRecord) {
	for _, s := range m {
		s.Record(rec)
	}
}

// MultiSink combines sinks; nil entries are dropped. With zero or one live
// sink it returns nil or that sink unwrapped.
func MultiSink(sinks ...SpanSink) SpanSink {
	var live multiSink
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}
