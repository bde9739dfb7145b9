package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// Span is one named phase of a request's life, in milliseconds on the
// clock axis the trace was recorded against (the caller's faultnet.Clock;
// faultnet.AutoClock makes a replay's spans deterministic).
type Span struct {
	Name    string  `json:"name"`
	Detail  string  `json:"detail,omitempty"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
}

// Trace is one request's recorded life: admission through completion, with
// a span per pipeline phase (queue, batch, offload/local, …).
type Trace struct {
	// ID echoes the gateway's admission id.
	ID uint64 `json:"id"`
	// Session is the submitting session.
	Session string `json:"session"`
	// Label carries run-specific context — the gateway stamps the serving
	// variant's signature here.
	Label string `json:"label,omitempty"`
	// StartMS and EndMS bound the whole request on the clock axis.
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
	// Err is the completion error's message, empty on success.
	Err string `json:"err,omitempty"`
	// Spans are the recorded phases in the order they were added.
	Spans []Span `json:"spans"`
}

// TotalMS is the request's admission-to-completion time.
func (t Trace) TotalMS() float64 { return t.EndMS - t.StartMS }

// Tracer records request traces into a bounded ring buffer: the last
// Capacity finished traces are retained, older ones are dropped. All methods
// are safe for concurrent use.
type Tracer struct {
	mu       sync.Mutex
	capacity int
	traces   []Trace // oldest first
	started  int64
	finished int64
	dropped  int64
}

// DefaultTraceCapacity is the ring size NewTracer uses for capacity <= 0.
const DefaultTraceCapacity = 64

// NewTracer builds a tracer retaining the last capacity finished traces.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{capacity: capacity}
}

// Begin opens a trace for one request. The returned builder is handed along
// the pipeline; Finish files the trace into the ring.
func (t *Tracer) Begin(id uint64, session string, startMS float64) *TraceBuilder {
	t.mu.Lock()
	t.started++
	t.mu.Unlock()
	return &TraceBuilder{
		tracer: t,
		tr:     Trace{ID: id, Session: session, StartMS: startMS},
	}
}

// push files one finished trace, dropping the oldest when the ring is full.
func (t *Tracer) push(tr Trace) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.finished++
	if len(t.traces) >= t.capacity {
		copy(t.traces, t.traces[1:])
		t.traces = t.traces[:len(t.traces)-1]
		t.dropped++
	}
	t.traces = append(t.traces, tr)
}

// Traces returns a copy of the retained traces, oldest first.
func (t *Tracer) Traces() []Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Trace, len(t.traces))
	copy(out, t.traces)
	return out
}

// Stats reports how many traces were started, finished, and dropped from
// the ring.
func (t *Tracer) Stats() (started, finished, dropped int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.started, t.finished, t.dropped
}

// TraceBuilder accumulates one request's spans. It is safe for concurrent
// use: after a worker restart the wedged original and its replacement may
// both hold the builder, so span appends are serialized and Finish is
// exactly-once (later calls are no-ops) — mirroring the gateway's settled
// CAS.
type TraceBuilder struct {
	mu     sync.Mutex
	tracer *Tracer
	tr     Trace
	done   bool
}

// ID returns the request id the trace was opened with.
func (b *TraceBuilder) ID() uint64 { return b.tr.ID }

// SetLabel stamps run context (e.g. the serving variant signature) onto the
// trace; the last write before Finish wins.
func (b *TraceBuilder) SetLabel(label string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.done {
		b.tr.Label = label
	}
}

// Span appends one named phase. Spans recorded after Finish are dropped.
func (b *TraceBuilder) Span(name, detail string, startMS, endMS float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.done {
		return
	}
	b.tr.Spans = append(b.tr.Spans, Span{Name: name, Detail: detail, StartMS: startMS, EndMS: endMS})
}

// Finish seals the trace at endMS (with the completion error's message, if
// any) and files it into the tracer's ring. Only the first call has any
// effect.
func (b *TraceBuilder) Finish(endMS float64, errMsg string) {
	b.mu.Lock()
	if b.done {
		b.mu.Unlock()
		return
	}
	b.done = true
	b.tr.EndMS = endMS
	b.tr.Err = errMsg
	tr := b.tr
	b.mu.Unlock()
	b.tracer.push(tr)
}

// waterfallWidth is the bar width of the rendered waterfall, in cells.
const waterfallWidth = 32

// Waterfall renders the trace as a deterministic per-request waterfall: one
// header line, then one line per span with its interval and a bar scaled to
// the request's total duration. All float formatting is fixed-precision, so
// equal traces render byte-identical text.
func (t Trace) Waterfall() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %d session=%s", t.ID, t.Session)
	if t.Label != "" {
		fmt.Fprintf(&b, " variant=%s", t.Label)
	}
	fmt.Fprintf(&b, " total=%.3fms", t.TotalMS())
	if t.Err != "" {
		fmt.Fprintf(&b, " err=%q", t.Err)
	}
	b.WriteByte('\n')
	total := t.TotalMS()
	for _, s := range t.Spans {
		bar := renderBar(s.StartMS-t.StartMS, s.EndMS-t.StartMS, total)
		fmt.Fprintf(&b, "  %-10s %8.3f → %8.3f ms |%s|", s.Name, s.StartMS-t.StartMS, s.EndMS-t.StartMS, bar)
		if s.Detail != "" {
			fmt.Fprintf(&b, " %s", s.Detail)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// renderBar maps the [lo, hi] interval of a request spanning [0, total]
// onto a fixed-width cell row.
func renderBar(lo, hi, total float64) string {
	cells := make([]byte, waterfallWidth)
	for i := range cells {
		cells[i] = '.'
	}
	if total > 0 {
		start := int(math.Round(lo / total * waterfallWidth))
		end := int(math.Round(hi / total * waterfallWidth))
		if start < 0 {
			start = 0
		}
		if end > waterfallWidth {
			end = waterfallWidth
		}
		if end <= start && start < waterfallWidth {
			end = start + 1
		}
		for i := start; i < end; i++ {
			cells[i] = '#'
		}
	}
	return string(cells)
}

// Waterfalls renders a set of traces in ascending request-id order (the
// ring keeps insertion order, which under concurrency is racy; sorting by id
// makes the combined rendering deterministic).
func Waterfalls(traces []Trace) string {
	sorted := make([]Trace, len(traces))
	copy(sorted, traces)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	var b strings.Builder
	for _, t := range sorted {
		b.WriteString(t.Waterfall())
	}
	return b.String()
}
