// Package clobonly implements the whole-document CLOB baseline (the
// DB2/Oracle "XML column" mode the paper's §6 describes): each document
// is stored as one character large object, queries must parse and
// evaluate every candidate document, and retrieval returns the stored
// text unchanged.
package clobonly

import (
	"fmt"
	"sort"
	"sync"

	"github.com/gridmeta/hybridcat/internal/baseline"
	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/relstore"
	"github.com/gridmeta/hybridcat/internal/xmldoc"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

// Store is a whole-document CLOB store.
type Store struct {
	Schema *xmlschema.Schema
	DB     *relstore.Database

	mu     sync.Mutex
	nextID int64
}

// New creates the docs table.
func New(schema *xmlschema.Schema) (*Store, error) {
	db := relstore.NewDatabase()
	if _, err := db.CreateTable("docs", []relstore.Column{
		{Name: "doc_id", Type: relstore.KInt, NotNull: true},
		{Name: "clob", Type: relstore.KString, NotNull: true},
	}, relstore.Index{Name: "docs_pk", Unique: true, Cols: []string{"doc_id"}}); err != nil {
		return nil, err
	}
	return &Store{Schema: schema, DB: db}, nil
}

// Name implements baseline.Store.
func (s *Store) Name() string { return "clob" }

// Ingest implements baseline.Store.
func (s *Store) Ingest(owner string, doc *xmldoc.Node) (int64, error) {
	_ = owner
	s.mu.Lock()
	s.nextID++
	id := s.nextID
	s.mu.Unlock()
	_, err := s.DB.MustTable("docs").Insert(relstore.Row{relstore.Int(id), relstore.Str(doc.String())})
	return id, err
}

// Evaluate implements baseline.Store: a full scan that parses and
// DOM-evaluates every document — the cost profile the hybrid approach is
// designed to avoid.
func (s *Store) Evaluate(q *catalog.Query) ([]int64, error) {
	if len(q.Attrs) == 0 {
		return nil, fmt.Errorf("clobonly: empty query")
	}
	var out []int64
	var scanErr error
	s.DB.MustTable("docs").Scan(func(_ int64, r relstore.Row) bool {
		doc, err := xmldoc.ParseString(r[1].S)
		if err != nil {
			scanErr = fmt.Errorf("clobonly: stored document %d corrupt: %w", r[0].I, err)
			return false
		}
		if baseline.DocMatches(s.Schema, doc, q) {
			out = append(out, r[0].I)
		}
		return true
	})
	if scanErr != nil {
		return nil, scanErr
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Fetch implements baseline.Store: the CLOB is returned as stored.
func (s *Store) Fetch(ids []int64) ([]catalog.Response, error) {
	docs := s.DB.MustTable("docs")
	var out []catalog.Response
	for _, id := range ids {
		rowIDs, err := docs.LookupEqual("docs_pk", relstore.Int(id))
		if err != nil {
			return nil, err
		}
		for _, rid := range rowIDs {
			if r := docs.Get(rid); r != nil {
				out = append(out, catalog.Response{ObjectID: id, XML: r[1].S})
			}
		}
	}
	return out, nil
}

// StorageBytes implements baseline.Store.
func (s *Store) StorageBytes() int64 { return s.DB.StorageBytes() }
