package obs

import (
	"testing"
	"time"
)

// TestTraceStages verifies stage recording and the nil no-op contract.
func TestTraceStages(t *testing.T) {
	tr := NewTrace("query")
	end := tr.StartStage("probe")
	time.Sleep(time.Millisecond)
	end(42)
	tr.Annotate("repr=bitmap")
	tr.AddStage("rollup", time.Now(), 5*time.Millisecond, 7)
	if len(tr.Stages) != 2 {
		t.Fatalf("stages = %d, want 2", len(tr.Stages))
	}
	if tr.Stages[0].Name != "probe" || tr.Stages[0].Rows != 42 {
		t.Errorf("stage 0 = %+v", tr.Stages[0])
	}
	if tr.Stages[0].DurNS <= 0 {
		t.Errorf("probe duration = %d, want > 0", tr.Stages[0].DurNS)
	}
	if tr.Stages[1].DurNS != (5 * time.Millisecond).Nanoseconds() {
		t.Errorf("rollup duration = %d", tr.Stages[1].DurNS)
	}
	if len(tr.Notes) != 1 || tr.Notes[0] != "repr=bitmap" {
		t.Errorf("notes = %v", tr.Notes)
	}

	var nilTr *Trace
	nilTr.StartStage("x")(1)
	nilTr.Annotate("y")
	nilTr.AddStage("z", time.Now(), 0, 0)

	var nilRing *TraceRing
	if nilRing.Begin("q") != nil {
		t.Error("nil ring must Begin nil traces")
	}
	nilRing.Finish(tr)
	nilRing.Offer(tr)
	if nilRing.Slowest() != nil || nilRing.Offered() != 0 {
		t.Error("nil ring must be empty")
	}
	nilRing.Reset()
}

// mkTrace builds a finished trace with a fixed total.
func mkTrace(name string, total int64) *Trace {
	tr := NewTrace(name)
	tr.TotalNS = total
	return tr
}

// TestTraceRingEviction pins the keep-the-slowest eviction order: when
// full, a new trace evicts the current fastest resident only if it is
// slower; otherwise it is dropped.
func TestTraceRingEviction(t *testing.T) {
	r := NewTraceRing(3)
	r.Offer(mkTrace("a", 30))
	r.Offer(mkTrace("b", 10))
	r.Offer(mkTrace("c", 20))

	// Full: {10, 20, 30}. A faster trace (5) is dropped.
	r.Offer(mkTrace("d", 5))
	got := r.Slowest()
	if len(got) != 3 || got[0].Name != "a" || got[1].Name != "c" || got[2].Name != "b" {
		t.Fatalf("after drop: %v", names(got))
	}

	// A slower trace (25) evicts the fastest resident (b, 10).
	r.Offer(mkTrace("e", 25))
	got = r.Slowest()
	if len(got) != 3 || got[0].Name != "a" || got[1].Name != "e" || got[2].Name != "c" {
		t.Fatalf("after evict: %v", names(got))
	}

	// A new slowest (99) lands at the front; c (20) is evicted.
	r.Offer(mkTrace("f", 99))
	got = r.Slowest()
	if len(got) != 3 || got[0].Name != "f" || got[1].Name != "a" || got[2].Name != "e" {
		t.Fatalf("after new slowest: %v", names(got))
	}

	if r.Offered() != 6 {
		t.Errorf("offered = %d, want 6", r.Offered())
	}
	r.Reset()
	if len(r.Slowest()) != 0 || r.Offered() != 0 {
		t.Error("reset did not clear the ring")
	}
}

// TestTraceRingFinish verifies Finish stamps a positive total and that
// NewTraceRing rejects non-positive capacities by disabling itself.
func TestTraceRingFinish(t *testing.T) {
	if NewTraceRing(0) != nil || NewTraceRing(-1) != nil {
		t.Fatal("capacity <= 0 must return a nil (disabled) ring")
	}
	r := NewTraceRing(2)
	tr := r.Begin("query")
	if tr == nil {
		t.Fatal("Begin returned nil on a live ring")
	}
	time.Sleep(time.Millisecond)
	r.Finish(tr)
	got := r.Slowest()
	if len(got) != 1 || got[0].TotalNS <= 0 {
		t.Fatalf("finish: %v", names(got))
	}
}

func names(ts []*Trace) []string {
	out := make([]string, len(ts))
	for i, tr := range ts {
		out[i] = tr.Name
	}
	return out
}
