package relstore

import "fmt"

// Column describes one table column.
type Column struct {
	Name    string
	Type    Kind
	NotNull bool
}

// Schema describes a table's columns. Column names are unique,
// case-sensitive, and resolved by ColIndex.
type Schema struct {
	Name    string
	Columns []Column
	byName  map[string]int
}

// NewSchema builds a schema, validating column-name uniqueness.
func NewSchema(name string, cols ...Column) (*Schema, error) {
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
	return s, nil
}

// MustSchema is NewSchema that panics on error; for static schemas.
func MustSchema(name string, cols ...Column) *Schema {
	s, err := NewSchema(name, cols...)
	if err != nil {
		panic(err)
	}
	return s
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
