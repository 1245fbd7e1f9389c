package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// captureKey identifies one distinct reply to one hot-set request.
type captureKey struct {
	key  int
	hash uint64
}

// capture is a reply kept for the oracle, judged once after the run;
// count is how many responses were byte-identical to it.
type capture struct {
	op    op
	body  []byte
	count int
}

// ack is one acknowledged ingest.
type ack struct {
	doc int   // generator index of the document sent
	id  int64 // object ID the service returned
}

// client is one closed-loop connection: it sends its next request only
// after the previous reply has been read to the end.
type client struct {
	hc   *http.Client
	base string
	g    *opGen
	ids  []int64
	seed maphash.Seed
	buf  bytes.Buffer
	done *atomic.Int64

	lat       [numKinds][]int64 // nanoseconds, successful requests only
	attempted int
	failed    int
	non2xx    int
	errs      []string
	keyed     map[captureKey]*capture
	oneOff    []*capture
	acks      []ack
	sentBytes int64 // XML bytes of acknowledged ingests
}

func newClient(base string, g *opGen, ids []int64, seed maphash.Seed) *client {
	return &client{
		hc: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			Timeout:   60 * time.Second,
		},
		base: base, g: g, ids: ids, seed: seed,
		keyed: make(map[captureKey]*capture),
	}
}

func (c *client) fail(o *op, format string, args ...any) {
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, fmt.Sprintf("%s %s: ", o.method, o.path)+fmt.Sprintf(format, args...))
	}
}

// do sends one request. The timed span runs from just before the
// request is written until its reply body has been read; building the
// request body and bookkeeping for the oracle stay outside.
func (c *client) do(o op, timed bool) {
	c.g.materialize(&o, c.ids)
	var body io.Reader
	if o.body != nil {
		body = bytes.NewReader(o.body)
	}
	req, err := http.NewRequest(o.method, c.base+o.path, body)
	if err != nil {
		panic(err) // generated URLs are well-formed
	}
	c.attempted++
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		c.fail(&o, "%v", err)
		return
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	if err != nil {
		c.fail(&o, "reading reply: %v", err)
		return
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		c.non2xx++
		c.fail(&o, "status %d: %.200s", resp.StatusCode, c.buf.Bytes())
		return
	}
	if timed {
		c.lat[o.kind] = append(c.lat[o.kind], elapsed.Nanoseconds())
		c.done.Add(1)
	}
	c.keep(&o)
}

// keep records what the oracle needs from a successful reply.
func (c *client) keep(o *op) {
	switch {
	case o.kind == opIngest:
		var reply struct {
			ID int64 `json:"id"`
		}
		if err := json.Unmarshal(c.buf.Bytes(), &reply); err != nil || reply.ID == 0 {
			c.fail(o, "bad ingest reply %.100s", c.buf.Bytes())
			return
		}
		c.acks = append(c.acks, ack{doc: o.doc, id: reply.ID})
		c.sentBytes += int64(len(o.body))
	case o.key >= 0:
		k := captureKey{o.key, maphash.Bytes(c.seed, c.buf.Bytes())}
		if cp := c.keyed[k]; cp != nil {
			cp.count++
			return
		}
		c.keyed[k] = &capture{op: *o, body: bytes.Clone(c.buf.Bytes()), count: 1}
	case o.sample || o.kind == opRanked:
		c.oneOff = append(c.oneOff, &capture{op: *o, body: bytes.Clone(c.buf.Bytes()), count: 1})
	}
}

// timedResult is what one timed run observed from the client side.
type timedResult struct {
	lat       [numKinds][]int64 // sorted
	attempted int
	failed    int
	non2xx    int
	wall      time.Duration
	errs      []string
	captures  []*capture
	acks      []ack
	sentBytes int64
	opsPerS   []float64 // per window
	cpuPerOp  []float64 // per window, server CPU ms
	rssMB     float64   // mean over the window boundaries
}

// driver owns the two closed-loop clients of one timed run.
type driver struct {
	g    *opGen
	wl   string
	cs   []*client
	done atomic.Int64
}

// windows is how many equal parts the measured phase is cut into.
const windows = 10

// sample is the state at a window boundary.
type sample struct {
	at    time.Time
	ops   int64   // successful timed requests so far
	cpuMS float64 // server CPU time so far
	rssMB float64 // server resident set now
}

func newDriver(base string, g *opGen, ids []int64, wl string) *driver {
	d := &driver{g: g, wl: wl}
	seed := maphash.MakeSeed()
	for i := 0; i < clients; i++ {
		c := newClient(base, g, ids, seed)
		c.done = &d.done
		d.cs = append(d.cs, c)
	}
	return d
}

func (d *driver) close() {
	for _, c := range d.cs {
		c.hc.CloseIdleConnections()
	}
}

// warm sends the workload's warm-up, untimed, alternating connections.
func (d *driver) warm() {
	for i, o := range d.g.warmup(d.wl) {
		d.cs[i%clients].do(o, false)
	}
}

// measure drives both clients for the given duration and merges what
// they saw (warm-up included in the attempted and failed counts).
func (d *driver) measure(ctx context.Context, dur time.Duration, srv *server) (*timedResult, error) {
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	// A sampler cuts the phase into ten windows. The throughput and
	// CPU metrics are medians over windows: a neighbour's burst on the
	// shared cores, or a checkpoint, slows a few windows, not the median.
	// Memory is the mean over the boundaries: the high-water mark jumps
	// by a quarter with whether one more checkpoint fits into the run.
	var (
		samples []sample
		procErr error
		stop    = make(chan struct{})
		sampled = make(chan struct{})
	)
	go func() {
		defer close(sampled)
		tick := time.NewTicker(dur / windows)
		defer tick.Stop()
		take := func() {
			ms, err := srv.cpuMillis()
			rss, _, rerr := srv.rssMB()
			if err == nil {
				err = rerr
			}
			if err != nil && procErr == nil {
				procErr = err
			}
			samples = append(samples, sample{time.Now(), d.done.Load(), ms, rss})
		}
		take()
		for {
			select {
			case <-tick.C:
				take()
			case <-stop:
				return
			}
		}
	}()
	for i, c := range d.cs {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			next := d.g.stream(d.wl, i)
			for ctx.Err() == nil && time.Now().Before(deadline) {
				c.do(next(), true)
			}
		}(i, c)
	}
	wg.Wait()
	res := &timedResult{wall: time.Since(start)}
	close(stop)
	<-sampled
	if procErr != nil {
		return nil, procErr
	}
	for _, sm := range samples {
		res.rssMB += sm.rssMB / float64(len(samples))
	}
	for i := 1; i < len(samples); i++ {
		a, b := samples[i-1], samples[i]
		if n := float64(b.ops - a.ops); n > 0 {
			res.opsPerS = append(res.opsPerS, n/b.at.Sub(a.at).Seconds())
			res.cpuPerOp = append(res.cpuPerOp, (b.cpuMS-a.cpuMS)/n)
		}
	}

	merged := make(map[captureKey]*capture)
	for _, c := range d.cs {
		for k := range res.lat {
			res.lat[k] = append(res.lat[k], c.lat[k]...)
		}
		res.attempted += c.attempted
		res.failed += c.failed
		res.non2xx += c.non2xx
		res.errs = append(res.errs, c.errs...)
		res.acks = append(res.acks, c.acks...)
		res.sentBytes += c.sentBytes
		res.captures = append(res.captures, c.oneOff...)
		for k, cp := range c.keyed {
			if have := merged[k]; have != nil {
				have.count += cp.count
			} else {
				merged[k] = cp
			}
		}
	}
	for _, cp := range merged {
		res.captures = append(res.captures, cp)
	}
	// Map order must not leak into which failures get reported first.
	sort.Slice(res.captures, func(a, b int) bool {
		ca, cb := res.captures[a], res.captures[b]
		if ca.op.key != cb.op.key {
			return ca.op.key < cb.op.key
		}
		return bytes.Compare(ca.op.body, cb.op.body) < 0
	})
	for k := range res.lat {
		sort.Slice(res.lat[k], func(a, b int) bool { return res.lat[k][a] < res.lat[k][b] })
	}
	return res, nil
}
