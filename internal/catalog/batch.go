package catalog

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/gridmeta/hybridcat/internal/core"
	"github.com/gridmeta/hybridcat/internal/xmldoc"
)

// DocError ties one batch ingest failure to the input index of the
// document that caused it.
type DocError struct {
	Index int
	Err   error
}

// Error names the document's input index and its failure.
func (e *DocError) Error() string {
	return fmt.Sprintf("document %d: %v", e.Index, e.Err)
}

// Unwrap returns the document's underlying failure, for errors.Is/As.
func (e *DocError) Unwrap() error { return e.Err }

// BatchError reports every failing document of a batch, ordered by input
// index. The ordering is deterministic regardless of which shredding
// goroutine finished first.
type BatchError struct {
	Docs []DocError
}

// Error names the one failing document, or counts the failures and lists
// each of them.
func (e *BatchError) Error() string {
	if len(e.Docs) == 1 {
		return fmt.Sprintf("catalog: batch document %d: %v", e.Docs[0].Index, e.Docs[0].Err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "catalog: %d batch documents failed:", len(e.Docs))
	for i := range e.Docs {
		fmt.Fprintf(&b, "\n  document %d: %v", e.Docs[i].Index, e.Docs[i].Err)
	}
	return b.String()
}

// Unwrap exposes the per-document causes to errors.Is/As.
func (e *BatchError) Unwrap() []error {
	out := make([]error, len(e.Docs))
	for i := range e.Docs {
		out[i] = &e.Docs[i]
	}
	return out
}

// IngestBatch shreds documents concurrently and inserts the results in
// document order, returning the assigned object IDs. Shredding is the
// CPU-bound phase (tree walks, serialization, validation) and
// parallelizes across workers; row insertion stays serialized under the
// catalog lock for multi-table consistency.
//
// The batch is all-or-nothing: if any document fails validation, nothing
// is stored and the returned *BatchError lists every failing document by
// input index, ascending. workers <= 0 uses GOMAXPROCS.
func (c *Catalog) IngestBatch(owner string, docs []*xmldoc.Node, workers int) ([]int64, error) {
	if len(docs) == 0 {
		return nil, nil
	}
	if c.follower {
		return nil, ErrReadOnlyReplica
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(docs) {
		workers = len(docs)
	}

	// Phase 1: parallel shredding.
	results := make([]*core.ShredResult, len(docs))
	errs := make([]error, len(docs))
	var wg sync.WaitGroup
	next := make(chan int, len(docs))
	for i := range docs {
		next <- i
	}
	close(next)
	proto := op{kind: opIngest, owner: owner, lenient: c.opts.Lenient}
	opts := c.shredOpts(proto, true)
	defined := c.defined.Load()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i], errs[i] = c.shredder.Shred(docs[i], opts)
			}
		}()
	}
	wg.Wait()
	var failed []DocError
	for i, err := range errs {
		if err != nil {
			failed = append(failed, DocError{Index: i, Err: err})
		}
	}
	if len(failed) > 0 {
		return nil, &BatchError{Docs: failed}
	}

	// Phase 2: ordered insertion. The whole batch runs as one mutation
	// and so becomes one write-ahead log record: all-or-nothing on disk,
	// and one fsync amortized over every document.
	var ids []int64
	err := c.mutate(func() error {
		reshred := c.defined.Load() != defined // see c.defined
		objT := c.wtab(TObjects)
		ids = make([]int64, 0, len(docs))
		created := c.clock().UTC().Format(time.RFC3339)
		for i, doc := range docs {
			o := proto
			o.id, o.created, o.doc = objT.NextAutoID(), created, doc
			res := results[i]
			if reshred {
				res = nil
			}
			if err := c.applyIngest(o, res, true); err != nil {
				return &BatchError{Docs: []DocError{{Index: i, Err: err}}}
			}
			ids = append(ids, o.id)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ids, nil
}
