package main

import (
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"

	"github.com/gridmeta/hybridcat/internal/xmldoc"
)

// searchReply is the wire shape of POST /search (score only when ranked).
type searchReply struct {
	Total   int `json:"total"`
	Results []struct {
		ID    int64   `json:"id"`
		Score float64 `json:"score"`
		XML   string  `json:"xml"`
	} `json:"results"`
}

// oracle judges captured replies against the generated documents.
type oracle struct {
	c      *corpus
	writes bool // the workload ingests: replies may also hold new objects

	mu    sync.Mutex
	xmlOK map[captureKey]bool // (object ID, XML hash) pairs already compared
	seed  maphash.Seed
}

func newOracle(c *corpus, writes bool) *oracle {
	return &oracle{c: c, writes: writes, xmlOK: make(map[captureKey]bool), seed: maphash.MakeSeed()}
}

// checkAll judges every capture, spread over the available cores (the
// server is idle by now), and returns how many responses were wrong
// with a few examples.
func (o *oracle) checkAll(caps []*capture) (int, []string) {
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		wrong  int
		errs   []string
		next   = make(chan *capture)
		worker = func() {
			defer wg.Done()
			for cp := range next {
				if err := o.check(cp); err != nil {
					mu.Lock()
					wrong += cp.count
					if len(errs) < 5 {
						errs = append(errs, fmt.Sprintf("%s %s %s: %v", cp.op.method, cp.op.path, cp.op.body, err))
					}
					mu.Unlock()
				}
			}
		}
	)
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go worker()
	}
	for _, cp := range caps {
		next <- cp
	}
	close(next)
	wg.Wait()
	return wrong, errs
}

func (o *oracle) check(cp *capture) error {
	switch cp.op.kind {
	case opQuery:
		var reply struct {
			IDs []int64 `json:"ids"`
		}
		if err := json.Unmarshal(cp.body, &reply); err != nil {
			return err
		}
		got := reply.IDs
		if o.writes {
			got = o.c.preloadOnly(got)
		}
		if want := o.c.expected(cp.op.q); !slices.Equal(got, want) {
			return fmt.Errorf("got %d ids %v, documents say %d ids %v", len(got), head(got), len(want), head(want))
		}
		return nil
	case opSearch:
		return o.checkSearch(cp)
	case opRanked:
		return o.checkRanked(cp)
	case opFetch:
		return o.checkXML(o.c.ids[cp.op.doc], string(cp.body))
	}
	return nil
}

func head(ids []int64) []int64 {
	if len(ids) > 8 {
		return ids[:8]
	}
	return ids
}

// checkSearch compares one page of a structural search. Objects
// ingested during the run have larger IDs than their shard's preload,
// so the page must start with the preload's expected IDs and only then
// may continue with new ones.
func (o *oracle) checkSearch(cp *capture) error {
	var reply searchReply
	if err := json.Unmarshal(cp.body, &reply); err != nil {
		return err
	}
	want := o.c.expected(cp.op.q)
	page := want
	if len(page) > cp.op.limit {
		page = page[:cp.op.limit]
	}
	got := make([]int64, len(reply.Results))
	for i, r := range reply.Results {
		got[i] = r.ID
	}
	if o.writes {
		if reply.Total < len(want) || len(got) < len(page) || !slices.Equal(got[:len(page)], page) ||
			len(o.c.preloadOnly(got[len(page):])) != 0 {
			return fmt.Errorf("page %v of %d, documents say it starts %v of at least %d", got, reply.Total, page, len(want))
		}
	} else if reply.Total != len(want) || !slices.Equal(got, page) {
		return fmt.Errorf("page %v of %d, documents say %v of %d", got, reply.Total, page, len(want))
	}
	for _, r := range reply.Results {
		if err := o.checkXML(r.ID, r.XML); err != nil {
			return err
		}
	}
	return nil
}

// checkRanked has no independent BM25 to compare with; it holds the
// reply to what must be true of any correct ranking: at most limit
// results in descending score order, at least one (every query term
// occurs in the corpus), each visible to the owner, on the owner's
// shard, rebuilt correctly and containing a query term.
func (o *oracle) checkRanked(cp *capture) error {
	var reply searchReply
	if err := json.Unmarshal(cp.body, &reply); err != nil {
		return err
	}
	q := cp.op.q
	if n := len(reply.Results); n == 0 || n > cp.op.limit {
		return fmt.Errorf("%d ranked results for limit %d", n, cp.op.limit)
	}
	for i, r := range reply.Results {
		if i > 0 && r.Score > reply.Results[i-1].Score {
			return fmt.Errorf("scores not descending at %d", i)
		}
		lower := strings.ToLower(r.XML)
		found := false
		for _, t := range q.Rank.Terms {
			found = found || strings.Contains(lower, strings.ToLower(t))
		}
		if !found {
			return fmt.Errorf("object %d holds none of %v", r.ID, q.Rank.Terms)
		}
		d, preloaded := o.c.index[r.ID]
		if !preloaded {
			continue // ingested during the run; fetched back after quiescing
		}
		if !o.c.visible(q.Owner, d) || (o.c.sharded && o.c.shardOf[d] != o.c.ownerAt[q.Owner]) {
			return fmt.Errorf("object %d is not visible to %s on its shard", r.ID, q.Owner)
		}
		if err := o.checkXML(r.ID, r.XML); err != nil {
			return err
		}
	}
	return nil
}

// checkXML compares a rebuilt document with the generated one, once
// per distinct (object, text) pair. IDs outside the preload are judged
// by the fetch-back sample instead.
func (o *oracle) checkXML(id int64, xml string) error {
	d, ok := o.c.index[id]
	if !ok {
		if o.writes {
			return nil
		}
		return fmt.Errorf("object %d was never loaded", id)
	}
	k := captureKey{int(id), maphash.String(o.seed, xml)}
	o.mu.Lock()
	seen, good := o.xmlOK[k]
	o.mu.Unlock()
	if !seen {
		good = sameDocument(xml, o.c.docs[d])
		o.mu.Lock()
		o.xmlOK[k] = good
		o.mu.Unlock()
	}
	if !good {
		return fmt.Errorf("object %d: rebuilt XML differs from the document ingested", id)
	}
	return nil
}

func sameDocument(xml string, want *xmldoc.Node) bool {
	got, err := xmldoc.ParseString(xml)
	return err == nil && xmldoc.EqualUnordered(got, want)
}

// checkQuiesced runs after the clients have stopped on a workload that
// writes: the service must hold exactly the preload plus every
// acknowledged document, and a sample of acknowledged documents must
// fetch back equal to what was sent.
func checkQuiesced(base string, c *corpus, acks []ack) (failed int, errs []string) {
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	get := func(path string) ([]byte, error) {
		resp, err := hc.Get(base + path)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		return body, err
	}
	note := func(format string, args ...any) {
		failed++
		if len(errs) < 5 {
			errs = append(errs, fmt.Sprintf(format, args...))
		}
	}

	var objects []struct {
		ID int64 `json:"id"`
	}
	if body, err := get("/objects"); err != nil {
		note("%v", err)
	} else if err := json.Unmarshal(body, &objects); err != nil {
		note("GET /objects: %v", err)
	} else if want := len(c.docs) + len(acks); len(objects) != want {
		note("service holds %d objects, preload + acknowledged is %d", len(objects), want)
	}

	step := len(acks)/fetchBackSample + 1
	for i := 0; i < len(acks); i += step {
		a := acks[i]
		body, err := get(fmt.Sprintf("/fetch?id=%d", a.id))
		if err != nil {
			note("%v", err)
		} else if !sameDocument(string(body), c.g.gen.Document(a.doc)) {
			note("acknowledged object %d does not fetch back as document %d", a.id, a.doc)
		}
	}
	return failed, errs
}
