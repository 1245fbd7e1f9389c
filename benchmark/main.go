// Command benchmark is the repository's one performance benchmark
// (ROADMAP experiment W1): it builds cmd/mdserver, starts it as a child
// process on loopback, drives it over the socket from two closed-loop
// client connections, checks every answer against the generated
// documents, and reports end-to-end metrics (timed run, server
// instrumentation off) or per-layer metrics (traced in-process replay).
// README.md in this directory describes the metrics and workloads;
// BENCHMARK.json at the module root fixes their names and bounds.
//
//	go run ./benchmark --workload fig4_cold --seed 1 --seconds 10 --trace 0
//	go run ./benchmark                      # all four workloads, timed then traced
//	go run ./benchmark -repeat 2            # self-agreement against the bounds
//	go run ./benchmark -smoke               # the small configuration the package test runs
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"github.com/gridmeta/hybridcat/internal/catalog"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout)
	stop()
	os.Exit(code)
}

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	repeat   int
	smoke    bool
	dump     string
}

func run(ctx context.Context, args []string, stdout io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run: fig4_cold, search_hot, ingest_durable, mixed_sharded (default: all, timed then traced)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the corpus and of every request sequence")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the measured phase")
	fs.IntVar(&o.trace, "trace", 0, "0: timed run, end-to-end metrics; 1: timed run plus traced replay, per-layer metrics")
	fs.IntVar(&o.repeat, "repeat", 0, "run the timed set this many times and fail if two sets differ by more than a bound")
	fs.BoolVar(&o.smoke, "smoke", false, "small corpus and operation sets (the package test's configuration)")
	fs.StringVar(&o.dump, "dump", "", "write each workload's first 1000 queries as a JSON-lines query log into this directory and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := benchmark(ctx, stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// errIncorrect marks a run that completed but whose answers were wrong.
var errIncorrect = errors.New("operations failed or answers were wrong")

func benchmark(ctx context.Context, stdout io.Writer, o options) error {
	sz := fullSizes
	if o.smoke {
		sz = smokeSizes
	}
	if o.workload != "" && sz.TraceOps[o.workload] == 0 {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.dump != "" {
		return dumpLogs(newOpGen(o.seed, sz), o.dump)
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(root, buildDir), 0o755); err != nil {
		return err
	}
	bin, err := buildServer(ctx, root)
	if err != nil {
		return err
	}
	runDir, err := os.MkdirTemp(filepath.Join(root, buildDir), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(runDir)
	e := &env{bin: bin, sz: sz, out: stdout, spans: filepath.Join(root, buildDir, "spans"), runDir: runDir}
	dur := time.Duration(o.seconds * float64(time.Second))

	fmt.Fprintf(stdout, "environment: commit=%s go=%s nproc=%d GOMAXPROCS=%d clients=%d (closed loop) seed=%d seconds=%g docs=%d\n",
		gitCommit(root), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), clients, o.seed, o.seconds, sz.Docs)
	fmt.Fprintf(stdout, "flush policy: fsync per commit, no group commit, checkpoint every %d records; server metrics off in timed runs\n", checkpointEvery)
	fmt.Fprintf(stdout, "sets: hot queries=%d hot ids=%d mixed queries=%d (cache layers hold %d entries) trace ops=%v\n",
		sz.HotQueries, sz.HotIDs, sz.MixedQueries, catalog.DefaultCacheSize, sz.TraceOps)

	one := func(wl string, trace bool) (*result, error) {
		res, err := e.runWorkload(ctx, wl, o.seed, dur, trace)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wl, err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "%s\n", line)
		return res, nil
	}

	switch {
	case o.repeat > 0:
		return selfAgreement(stdout, bf, o.repeat, func(wl string) (*result, error) { return one(wl, false) })
	case o.workload != "":
		res, err := one(o.workload, o.trace != 0)
		if err == nil && !res.Correct {
			err = errIncorrect
		}
		return err
	}
	correct := true
	for _, wl := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, err := one(wl, traced)
			if err != nil {
				return err
			}
			correct = correct && res.Correct
		}
	}
	if !correct {
		return errIncorrect
	}
	return nil
}

// gitCommit names the checkout's commit when it is a git work tree.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := string(head)
	if len(ref) > 5 && ref[:5] == "ref: " {
		data, err := os.ReadFile(filepath.Join(root, ".git", ref[5:len(ref)-1]))
		if err != nil {
			return "unknown"
		}
		ref = string(data)
	}
	if len(ref) > 12 {
		ref = ref[:12]
	}
	return ref
}

func dumpLogs(g *opGen, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, wl := range workloadNames {
		f, err := os.Create(filepath.Join(dir, wl+".jsonl"))
		if err != nil {
			return err
		}
		if err := g.dumpQueryLog(f, wl, 1000); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// selfAgreement runs the timed set n times on the same code and fails
// when any end-to-end metric of any workload differs between two sets
// by more than its bound, printing every observed spread.
func selfAgreement(out io.Writer, bf *benchmarkFile, n int, one func(wl string) (*result, error)) error {
	if n < 2 {
		return fmt.Errorf("-repeat needs at least 2 sets")
	}
	sets := make([]map[string]*result, n)
	for i := range sets {
		sets[i] = map[string]*result{}
		for _, wl := range workloadNames {
			res, err := one(wl)
			if err != nil {
				return err
			}
			if !res.Correct {
				return errIncorrect
			}
			sets[i][wl] = res
		}
	}
	fmt.Fprintf(out, "\nself-agreement over %d sets (spread = (max-min)/min)\n", n)
	ok := true
	for _, wl := range workloadNames {
		for _, m := range bf.EndToEnd {
			lo, hi := sets[0][wl].Metrics[m.Name].Value, sets[0][wl].Metrics[m.Name].Value
			for _, s := range sets[1:] {
				v := s[wl].Metrics[m.Name].Value
				lo, hi = min(lo, v), max(hi, v)
			}
			spread := (hi - lo) / lo
			verdict := "ok"
			if spread > m.Bound {
				verdict, ok = "EXCEEDS BOUND", false
			}
			fmt.Fprintf(out, "   %-16s %-26s min %12.4f max %12.4f spread %6.2f%% bound %5.1f%% %s\n",
				wl, m.Name, lo, hi, spread*100, m.Bound*100, verdict)
		}
	}
	if !ok {
		return fmt.Errorf("two sets of runs of the same code disagree by more than a bound")
	}
	return nil
}
