package telemetry

import (
	"strings"
	"sync"
	"testing"
)

func TestTracerRingDropsOldest(t *testing.T) {
	tr := NewTracer(2)
	for i := uint64(1); i <= 4; i++ {
		b := tr.Begin(i, "s", 0)
		b.Finish(1, "")
	}
	got := tr.Traces()
	if len(got) != 2 || got[0].ID != 3 || got[1].ID != 4 {
		t.Fatalf("ring = %+v, want traces 3 and 4", got)
	}
	started, finished, dropped := tr.Stats()
	if started != 4 || finished != 4 || dropped != 2 {
		t.Fatalf("stats = %d/%d/%d, want 4/4/2", started, finished, dropped)
	}
}

func TestTraceBuilderFinishIsExactlyOnce(t *testing.T) {
	tr := NewTracer(8)
	b := tr.Begin(7, "sess", 1)
	b.SetLabel("f1")
	b.Span("queue", "", 1, 2)
	b.Finish(3, "")
	b.Span("late", "", 3, 4) // dropped: trace already sealed
	b.Finish(9, "second finish must not re-file")
	got := tr.Traces()
	if len(got) != 1 {
		t.Fatalf("traces = %d, want 1", len(got))
	}
	if got[0].EndMS != 3 || got[0].Err != "" || len(got[0].Spans) != 1 || got[0].Label != "f1" {
		t.Fatalf("trace = %+v, want sealed at 3 with one span", got[0])
	}
}

// TestTraceBuilderConcurrent mirrors the worker-restart scenario: two
// goroutines race spans and Finish on the same builder. Exactly one trace
// lands in the ring, race-clean.
func TestTraceBuilderConcurrent(t *testing.T) {
	tr := NewTracer(8)
	b := tr.Begin(1, "s", 0)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				b.Span("work", "", float64(i), float64(i+1))
			}
			b.Finish(100, "")
		}(g)
	}
	wg.Wait()
	if got := tr.Traces(); len(got) != 1 {
		t.Fatalf("traces = %d, want exactly 1 despite racing Finish", len(got))
	}
}

func TestWaterfallRendersDeterministically(t *testing.T) {
	mk := func() Trace {
		return Trace{
			ID: 12, Session: "session-003", Label: "f1", StartMS: 2, EndMS: 6,
			Spans: []Span{
				{Name: "queue", StartMS: 2, EndMS: 3},
				{Name: "batch", Detail: "size=2", StartMS: 3, EndMS: 4},
				{Name: "offloaded", StartMS: 4, EndMS: 6},
			},
		}
	}
	a, b := mk().Waterfall(), mk().Waterfall()
	if a != b {
		t.Fatalf("waterfall not deterministic:\n%s\nvs\n%s", a, b)
	}
	for _, want := range []string{"trace 12", "session=session-003", "variant=f1", "total=4.000ms", "queue", "offloaded", "size=2", "#"} {
		if !strings.Contains(a, want) {
			t.Fatalf("waterfall missing %q:\n%s", want, a)
		}
	}
	// Zero-duration traces must render without dividing by zero.
	z := Trace{ID: 1, Session: "s", Spans: []Span{{Name: "queue"}}}
	if out := z.Waterfall(); !strings.Contains(out, "queue") {
		t.Fatalf("zero-duration waterfall broken:\n%s", out)
	}
}

func TestWaterfallsSortByRequestID(t *testing.T) {
	out := Waterfalls([]Trace{
		{ID: 9, Session: "b"},
		{ID: 2, Session: "a"},
	})
	if strings.Index(out, "trace 2") > strings.Index(out, "trace 9") {
		t.Fatalf("waterfalls not sorted by id:\n%s", out)
	}
}
