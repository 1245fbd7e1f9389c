// Package hybridcat is a hybrid XML-relational metadata catalog for
// schema-based grid metadata, reproducing "A Hybrid XML-Relational Grid
// Metadata Catalog" (Jensen, Plale, Pallickara, Sun; ICPP 2006).
//
// A catalog is opened over a community XML schema annotated with
// metadata-attribute partitioning (which interior elements are concepts
// scientists query on). Ingested documents are shredded twice: each
// metadata attribute instance is stored as a CLOB carrying its position
// in the schema-level global ordering, and queryable attributes
// additionally shred into attribute/element rows plus a sub-attribute
// inverted list. Queries are unordered criteria over attributes —
// "which objects carry these attributes with these values" — evaluated
// entirely with set operations; responses are rebuilt as schema-ordered
// XML from the CLOBs and the global ordering, with no external tagging
// step.
//
// Dynamic metadata attributes (the recursive namelist-parameter regions
// of schemas like LEAD's) are resolved by registered (name, source)
// identity rather than document structure, and validated on insert.
//
// Catalogs can be opened durable — OpenDurable commits every mutation
// to a write-ahead log before acknowledging it and recovers from the
// latest checkpoint snapshot plus the log — and observed: a
// MetricsRegistry passed in Options.Metrics collects per-layer counters
// and latency histograms plus a ring of the slowest query traces.
//
// Quickstart:
//
//	cat, _ := hybridcat.OpenLEAD(hybridcat.Options{})
//	grid, _ := cat.RegisterAttr("grid", "ARPS", 0, "")
//	cat.RegisterElem("dx", "ARPS", grid.ID, hybridcat.DTFloat, "")
//	id, _ := cat.IngestXML("alice", document)
//	q := &hybridcat.Query{}
//	q.Attr("grid", "ARPS").AddElem("dx", "ARPS", hybridcat.OpEq, hybridcat.Int(1000))
//	responses, _ := cat.Search(q)
//
// See the examples directory for runnable programs and DESIGN.md for the
// architecture.
package hybridcat

import (
	"io"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/core"
	"github.com/gridmeta/hybridcat/internal/obs"
	"github.com/gridmeta/hybridcat/internal/ontology"
	"github.com/gridmeta/hybridcat/internal/relstore"
	"github.com/gridmeta/hybridcat/internal/xmldoc"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
	"github.com/gridmeta/hybridcat/internal/xpath"
)

// Catalog is a hybrid XML-relational metadata catalog over one community
// schema. See catalog.Catalog for the method set: Ingest, IngestXML,
// AddAttribute, Evaluate, Search, BuildResponse, FetchDocument,
// RegisterAttr, RegisterElem, Delete, Objects.
type Catalog = catalog.Catalog

// Options configures a catalog: ingest policy (AutoRegister, Lenient),
// the read caches' size (CacheSize; negative turns them off) and the
// instrumentation registry (Metrics). The catalog has one physical
// design: structural queries have one executor, over sorted
// instance-key lists and the full sub-attribute inverted list, and
// ranked queries one text index, built on the first ranked query;
// there is no switch for any of them.
type Options = catalog.Options

// Query is an unordered query over metadata attributes: an object
// matches when it contains a satisfying instance of every top-level
// criterion.
type Query = catalog.Query

// AttrCriteria is one criteria node: an attribute identity with element
// predicates and nested sub-attribute criteria (the myLEAD MyAttr).
type AttrCriteria = catalog.AttrCriteria

// ElemPred is one element predicate inside a criteria node.
type ElemPred = catalog.ElemPred

// Response is one tagged XML document built for a query result.
type Response = catalog.Response

// ObjectInfo describes a cataloged object.
type ObjectInfo = catalog.ObjectInfo

// CacheStats reports the counters of the three read-cache layers
// (evaluate, postings, response) and the data generation entries are
// stamped with: the published version's epoch, which a dynamic
// registration advances like any other commit.
type CacheStats = catalog.CacheStats

// ErrUnknownDefinition is returned when a query names an attribute or
// element with no definition visible to the query's owner.
var ErrUnknownDefinition = catalog.ErrUnknownDefinition

// RankSpec asks for BM25 ranked retrieval over attribute text values:
// set Query.Rank and run EvaluateRanked or SearchRanked. Terms are
// analyzed with the index's tokenizer; K bounds the result count.
type RankSpec = catalog.RankSpec

// ScoredID is one ranked result: an object ID with its BM25 score.
type ScoredID = catalog.ScoredID

// RankedResponse is one ranked search result with its rebuilt document.
type RankedResponse = catalog.RankedResponse

// DefaultRankK is the ranked-result bound when RankSpec.K is zero.
const DefaultRankK = catalog.DefaultRankK

// Schema is an annotated, finalized community schema.
type Schema = xmlschema.Schema

// SchemaNode is one element declaration in a schema.
type SchemaNode = xmlschema.Node

// DynamicSpec configures how a dynamic attribute container is
// interpreted (entity/name/source/node/value tag names).
type DynamicSpec = xmlschema.DynamicSpec

// FGDCDynamicSpec is the LEAD/FGDC detailed-entity convention.
var FGDCDynamicSpec = xmlschema.FGDCDynamicSpec

// Document is a parsed XML element tree.
type Document = xmldoc.Node

// AttrDef is a metadata attribute definition.
type AttrDef = core.AttrDef

// ElemDef is a metadata element definition.
type ElemDef = core.ElemDef

// DataType is the declared type of a metadata element.
type DataType = core.DataType

// Element data types, validated on insert.
const (
	DTString = core.DTString
	DTInt    = core.DTInt
	DTFloat  = core.DTFloat
	DTBool   = core.DTBool
	DTDate   = core.DTDate
)

// Value is a typed query value.
type Value = relstore.Value

// Int wraps an int64 query value.
func Int(i int64) Value { return relstore.Int(i) }

// Float wraps a float64 query value.
func Float(f float64) Value { return relstore.Float(f) }

// Str wraps a string query value.
func Str(s string) Value { return relstore.Str(s) }

// Bool wraps a boolean query value.
func Bool(b bool) Value { return relstore.Bool(b) }

// CmpOp is a comparison operator for element predicates.
type CmpOp = relstore.CmpOp

// Comparison operators.
const (
	OpEq = relstore.OpEq
	OpNe = relstore.OpNe
	OpLt = relstore.OpLt
	OpLe = relstore.OpLe
	OpGt = relstore.OpGt
	OpGe = relstore.OpGe
)

// Open builds a catalog over a finalized annotated schema.
func Open(schema *Schema, opts Options) (*Catalog, error) {
	return catalog.Open(schema, opts)
}

// OpenLEAD builds a catalog over the paper's partial LEAD schema
// (Figure 2).
func OpenLEAD(opts Options) (*Catalog, error) {
	s, err := xmlschema.LEAD()
	if err != nil {
		return nil, err
	}
	return catalog.Open(s, opts)
}

// DurabilityOptions configures write-ahead durability for OpenDurable.
type DurabilityOptions = catalog.DurabilityOptions

// ErrDurability wraps failures to make an acknowledged mutation durable;
// the in-memory state, the definitions the mutation registered
// included, is rolled back before it is returned.
var ErrDurability = catalog.ErrDurability

// OpenDurable builds a catalog whose mutations are committed to a
// write-ahead log before they return, recovering any existing state from
// the checkpoint snapshot plus the log (see DESIGN.md "Durability and
// recovery").
func OpenDurable(schema *Schema, opts Options, dopts DurabilityOptions) (*Catalog, error) {
	return catalog.OpenDurable(schema, opts, dopts)
}

// LEADSchema returns the paper's partial LEAD schema (Figure 2).
func LEADSchema() *Schema { return xmlschema.MustLEAD() }

// Figure3Document is the paper's Figure 3 example metadata document.
const Figure3Document = xmlschema.Figure3Document

// ParseSchemaDSL builds an annotated schema from the compact
// indentation-based format ('*' attribute, '+' repeats, '!' dynamic
// container, '~' non-queryable); see internal/xmlschema.ParseDSL for the
// grammar.
func ParseSchemaDSL(name, text string) (*Schema, error) {
	return xmlschema.ParseDSL(name, text)
}

// ParseXSD builds an annotated schema from an XML Schema document using
// the supported subset (sequences, refs, maxOccurs) with partitioning
// annotations on a "role" attribute; rootElement "" uses the first
// top-level declaration.
func ParseXSD(name, data, rootElement string) (*Schema, error) {
	return xmlschema.ParseXSD(name, data, rootElement)
}

// ParseXML parses one XML document.
func ParseXML(s string) (*Document, error) { return xmldoc.ParseString(s) }

// XPath compiles an XPath-lite expression (used with Document trees for
// path-style inspection; the catalog itself is queried with Query).
func XPath(src string) (*xpath.Expr, error) { return xpath.Compile(src) }

// CollectionInfo describes one collection (aggregation); collections are
// managed through Catalog.CreateCollection, AddToCollection,
// EvaluateInContext, and CollectionsContaining.
type CollectionInfo = catalog.CollectionInfo

// Ontology is a broader/narrower term hierarchy used to widen keyword
// queries (the §3 "connected to an ontology" enhancement).
type Ontology = ontology.Ontology

// NewOntology returns an empty ontology; add terms with Add.
func NewOntology() *Ontology { return ontology.New() }

// ParseOntology reads the indentation term-hierarchy format.
func ParseOntology(text string) (*Ontology, error) { return ontology.Parse(text) }

// ExpandQuery widens string-equality predicates whose value is a known
// ontology term into OneOf predicates over the term's narrower closure.
// The input query is not modified.
func ExpandQuery(o *Ontology, q *Query) *Query { return ontology.Expand(o, q) }

// CFKeywords is a small CF-standard-name-flavored sample hierarchy.
const CFKeywords = ontology.CFKeywords

// LoadCatalog rebuilds a catalog from a snapshot written by Catalog.Save.
// The schema must match the one the snapshot was written against.
func LoadCatalog(schema *Schema, opts Options, r io.Reader) (*Catalog, error) {
	return catalog.Load(schema, opts, r)
}

// ParseQueryJSON decodes the JSON query wire format (see the mdserver
// endpoints and internal/catalog's format documentation).
func ParseQueryJSON(data []byte) (*Query, error) { return catalog.ParseQueryJSON(data) }

// MarshalQueryJSON renders a query in the JSON wire format.
func MarshalQueryJSON(q *Query) ([]byte, error) { return catalog.MarshalQueryJSON(q) }

// MetricsRegistry is a sharded, atomic metrics registry. Pass one in
// Options.Metrics and the catalog publishes counters and histograms for
// every layer it drives (relational store, read caches, WAL, query
// pipeline); render it with WriteProm or WriteJSON, or diff Snapshot
// calls around a workload. See DESIGN.md "Observability".
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// QueryTrace is one recorded catalog operation with its per-stage
// Figure-4 timings. With metrics on, the catalog keeps the slowest
// traces in a ring readable via Catalog.Traces (served by mdserver at
// /debug/tracez).
type QueryTrace = obs.Trace
