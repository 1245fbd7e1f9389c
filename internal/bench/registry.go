package bench

import (
	"fmt"
	"sort"
)

// Experiment is one runnable experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) (*Table, error)
}

var experiments = map[string]Experiment{
	"F1": {"F1", "Figure 1 pipeline round trip", F1RoundTrip},
	"F2": {"F2", "Figure 2 schema partitioning and ordering", F2SchemaOrdering},
	"F3": {"F3", "Figure 3 shredding example", F3Shred},
	"F4": {"F4", "Figure 4 worked query", F4WorkedQuery},
	"E1": {"E1", "relational vs native XML throughput", E1Throughput},
	"E2": {"E2", "query latency vs corpus size", E2QueryScale},
	"E3": {"E3", "query latency vs nesting depth", E3NestingDepth},
	"E4": {"E4", "response construction time", E4ResponseBuild},
	"E5": {"E5", "storage per approach", E5Storage},
	"E6": {"E6", "dynamic attribute ingest and validation", E6DynamicAttrs},
	"E7": {"E7", "ordering maintenance on insert", E7OrderingUpdate},
	"A2": {"A2", "ablation: CLOB granularity", A2ClobGranularity},
	"A3": {"A3", "ablation: typed columns", A3TypedColumns},
	"R1": {"R1", "WAL durability: ingest overhead and recovery time", R1Durability},
	"R2": {"R2", "group commit and replication: writer scaling and replica lag", R2Replication},
}

// IDs lists the experiment IDs in a stable order.
func IDs() []string {
	out := make([]string, 0, len(experiments))
	for id := range experiments {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Lookup returns the experiment with the given ID.
func Lookup(id string) (Experiment, bool) {
	e, ok := experiments[id]
	return e, ok
}

// Run executes one experiment by ID.
func Run(id string, o Options) (*Table, error) {
	e, ok := experiments[id]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (have %v)", id, IDs())
	}
	return e.Run(o)
}
