package relstore

import "fmt"

// Column describes one table column.
type Column struct {
	Name    string
	Type    Kind
	NotNull bool
}

// Index declares one index of a table: a copy-on-write B-tree over the
// order-preserving encoding of Cols, so it answers equality probes (a
// prefix scan) and range scans alike. A unique index refuses a second
// row with the same key. A row with a NULL in any of Cols has no entry:
// no probe finds it, and a unique index accepts any number of such rows.
type Index struct {
	Name   string
	Unique bool
	Cols   []string

	cols []int // positions of Cols, resolved by NewSchema
}

// Schema describes a table: its columns, resolved by ColIndex, and its
// indexes, in declaration order. Column and index names are unique,
// case-sensitive.
type Schema struct {
	Name    string
	Columns []Column
	Indexes []Index
	byName  map[string]int
}

// NewSchema builds a schema, validating that column and index names are
// unique and that every index names one or more existing columns.
func NewSchema(name string, cols []Column, indexes ...Index) (*Schema, error) {
	s := &Schema{Name: name, Columns: cols, byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("relstore: table %s: empty column name at position %d", name, i)
		}
		if _, dup := s.byName[c.Name]; dup {
			return nil, fmt.Errorf("relstore: table %s: duplicate column %q", name, c.Name)
		}
		s.byName[c.Name] = i
	}
	s.Indexes = make([]Index, len(indexes))
	for i, ix := range indexes {
		if ix.Name == "" || len(ix.Cols) == 0 {
			return nil, fmt.Errorf("relstore: table %s: index %d needs a name and columns", name, i)
		}
		if s.indexPos(ix.Name) >= 0 {
			return nil, fmt.Errorf("relstore: table %s: duplicate index %q", name, ix.Name)
		}
		pos, err := s.ColIndexes(ix.Cols...)
		if err != nil {
			return nil, err
		}
		s.Indexes[i] = Index{Name: ix.Name, Unique: ix.Unique, Cols: ix.Cols, cols: pos}
	}
	return s, nil
}

// ColIndex returns the position of the named column, or -1.
func (s *Schema) ColIndex(name string) int {
	i, ok := s.byName[name]
	if !ok {
		return -1
	}
	return i
}

// ColIndexes resolves several names, failing on the first unknown one.
func (s *Schema) ColIndexes(names ...string) ([]int, error) {
	idx := make([]int, len(names))
	for i, n := range names {
		j := s.ColIndex(n)
		if j < 0 {
			return nil, fmt.Errorf("relstore: table %s: unknown column %q", s.Name, n)
		}
		idx[i] = j
	}
	return idx, nil
}

// indexPos returns the position of the named index in Indexes, or -1.
// A table declares a handful of indexes, so a scan serves.
func (s *Schema) indexPos(name string) int {
	for i := range s.Indexes {
		if s.Indexes[i].Name == name {
			return i
		}
	}
	return -1
}

// CheckRow validates a row against the schema — its arity, NOT NULL
// constraints, and that each non-NULL value has its column's kind; no
// value is converted — and returns a copy for the table to store.
func (s *Schema) CheckRow(r Row) (Row, error) {
	if len(r) != len(s.Columns) {
		return nil, fmt.Errorf("relstore: table %s: row has %d values, want %d", s.Name, len(r), len(s.Columns))
	}
	for i, v := range r {
		c := s.Columns[i]
		switch {
		case v.IsNull() && c.NotNull:
			return nil, fmt.Errorf("relstore: table %s: column %q is NOT NULL", s.Name, c.Name)
		case !v.IsNull() && v.K != c.Type:
			return nil, fmt.Errorf("relstore: table %s: column %q holds %s, got %s value %s", s.Name, c.Name, c.Type, v.K, v)
		}
	}
	return CloneRow(r), nil
}
