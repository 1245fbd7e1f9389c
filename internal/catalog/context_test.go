package catalog

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countdownCtx is a context whose Err turns non-nil after a fixed
// number of checks, letting a test cancel deterministically at each
// stage boundary of the pipeline instead of racing a timer.
type countdownCtx struct {
	checks atomic.Int64
}

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countdownCtx) Done() <-chan struct{}       { return nil }
func (c *countdownCtx) Value(any) any               { return nil }
func (c *countdownCtx) Err() error {
	if c.checks.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// allow returns a context whose first n Err checks pass.
func allow(n int64) *countdownCtx {
	c := &countdownCtx{}
	c.checks.Store(n)
	return c
}

func TestEvaluateContextCancelledAtEveryStage(t *testing.T) {
	// The cache layers are off so every call runs the pipeline (and
	// therefore hits every stage-boundary check).
	c := newLEADCatalog(t, Options{CacheSize: -1})
	ingestFig3(t, c)
	q := dxQuery("")

	// Fully-live context: sanity-check the query has a match.
	ids, err := c.EvaluateContext(context.Background(), q)
	if err != nil || len(ids) != 1 {
		t.Fatalf("live evaluate = %v, %v", ids, err)
	}

	// Count how many boundary checks one full run makes, then rerun
	// cancelling at each boundary in turn.
	probe := allow(1 << 30)
	if _, err := c.EvaluateContext(probe, q); err != nil {
		t.Fatal(err)
	}
	boundaries := 1<<30 - probe.checks.Load()
	if boundaries < 3 {
		t.Fatalf("expected >= 3 boundary checks, saw %d", boundaries)
	}
	for n := int64(0); n < boundaries; n++ {
		ids, err := c.EvaluateContext(allow(n), q)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancel at check %d: got %v, %v; want context.Canceled", n, ids, err)
		}
	}
}

func TestEvaluateContextPreCancelled(t *testing.T) {
	c := newLEADCatalog(t, Options{})
	ingestFig3(t, c)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.EvaluateContext(ctx, dxQuery("")); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := c.EvaluateInContextCtx(ctx, 1, dxQuery("")); !errors.Is(err, context.Canceled) {
		// The scope walk may fail on the missing collection before the
		// pipeline runs; either way the call must not succeed.
		if err == nil {
			t.Fatal("pre-cancelled scoped evaluate succeeded")
		}
	}
}

// TestEvaluateContextSingleflightCancel drives concurrent evaluations of
// one query where some callers' contexts are cancelled mid-flight:
// callers with live contexts must never surface another caller's
// context.Canceled, whether the evaluate cache answers them or they
// compute.
func TestEvaluateContextSingleflightCancel(t *testing.T) {
	c := newLEADCatalog(t, Options{})
	ingestFig3(t, c)
	q := dxQuery("")
	var wg sync.WaitGroup
	for round := 0; round < 50; round++ {
		for i := 0; i < 4; i++ {
			wg.Add(2)
			go func(n int64) {
				defer wg.Done()
				// Cancelled partway through: must error with Canceled or
				// (if the cache answered first) succeed with the result.
				ids, err := c.EvaluateContext(allow(n), q)
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Errorf("cancelled caller: unexpected error %v", err)
				}
				if err == nil && len(ids) != 1 {
					t.Errorf("cancelled caller: ids = %v", ids)
				}
			}(int64(round % 3))
			go func() {
				defer wg.Done()
				ids, err := c.EvaluateContext(context.Background(), q)
				if err != nil || len(ids) != 1 {
					t.Errorf("live caller: ids = %v, err = %v", ids, err)
				}
			}()
		}
	}
	wg.Wait()
}
