// mdbench runs the reproduction experiments and prints their tables.
//
//	mdbench -list
//	mdbench -exp E3
//	mdbench -exp R1,R2 -json > results.json
//	mdbench -all [-quick]
//
// Experiment IDs and the paper claims they quantify are listed in
// DESIGN.md's per-experiment index; EXPERIMENTS.md records expected vs
// measured shapes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/gridmeta/hybridcat/internal/bench"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment ID to run (e.g. E1, F2, A3), comma-separated for several")
		all     = flag.Bool("all", false, "run every experiment")
		list    = flag.Bool("list", false, "list experiment IDs")
		quick   = flag.Bool("quick", false, "shrink corpora for a fast smoke run")
		asJSON  = flag.Bool("json", false, "emit the result tables as a JSON array instead of text")
		results []*bench.Table
	)
	flag.Parse()

	opts := bench.Options{Quick: *quick}
	switch {
	case *list:
		for _, id := range bench.IDs() {
			e, _ := bench.Lookup(id)
			fmt.Printf("%-4s %s\n", id, e.Title)
		}
		return
	case *all:
		for _, id := range bench.IDs() {
			results = append(results, run(id, opts, *asJSON))
		}
	case *exp != "":
		for _, id := range strings.Split(*exp, ",") {
			results = append(results, run(strings.TrimSpace(id), opts, *asJSON))
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintf(os.Stderr, "mdbench: %v\n", err)
			os.Exit(1)
		}
	}
}

func run(id string, opts bench.Options, quiet bool) *bench.Table {
	tab, err := bench.Run(id, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mdbench: %s: %v\n", id, err)
		os.Exit(1)
	}
	if !quiet {
		fmt.Println(tab)
	}
	return tab
}
