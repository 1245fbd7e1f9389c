// Package core implements the paper's primary contribution: the hybrid
// shredding of schema-based XML metadata into per-attribute CLOBs plus
// queryable attribute/element rows and sub-attribute inverted lists (§2,
// §3), with validated dynamic metadata attributes resolved by (name,
// source) rather than by document structure.
package core

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// DataType is the declared type of a metadata element, used to validate
// dynamic attribute values on insert (§3).
type DataType uint8

// Element data types.
const (
	// DTString accepts any text.
	DTString DataType = iota
	// DTInt requires an integer.
	DTInt
	// DTFloat requires a number.
	DTFloat
	// DTBool requires true/false (or 0/1, yes/no).
	DTBool
	// DTDate requires YYYY-MM-DD or RFC3339.
	DTDate
)

// String returns the type's catalog name.
func (d DataType) String() string {
	switch d {
	case DTString:
		return "string"
	case DTInt:
		return "int"
	case DTFloat:
		return "float"
	case DTBool:
		return "bool"
	case DTDate:
		return "date"
	}
	return fmt.Sprintf("DataType(%d)", uint8(d))
}

// ParseDataType parses a catalog type name.
func ParseDataType(s string) (DataType, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "string", "text", "":
		return DTString, nil
	case "int", "integer":
		return DTInt, nil
	case "float", "double", "number":
		return DTFloat, nil
	case "bool", "boolean":
		return DTBool, nil
	case "date":
		return DTDate, nil
	}
	return 0, fmt.Errorf("core: unknown data type %q", s)
}

// ValidateValue checks text against the type and returns its numeric
// shadow (used for the typed nval column) when one exists.
func (d DataType) ValidateValue(text string) (num float64, hasNum bool, err error) {
	t := strings.TrimSpace(text)
	switch d {
	case DTString:
		// A failed ParseFloat allocates its error, so text that cannot
		// be a number skips the call.
		if mayBeFloat(t) {
			if f, perr := strconv.ParseFloat(t, 64); perr == nil {
				return f, true, nil
			}
		}
		return 0, false, nil
	case DTInt:
		i, perr := strconv.ParseInt(t, 10, 64)
		if perr != nil {
			return 0, false, fmt.Errorf("core: %q is not an integer", text)
		}
		return float64(i), true, nil
	case DTFloat:
		f, perr := strconv.ParseFloat(t, 64)
		if perr != nil {
			return 0, false, fmt.Errorf("core: %q is not a number", text)
		}
		return f, true, nil
	case DTBool:
		switch strings.ToLower(t) {
		case "true", "1", "yes":
			return 1, true, nil
		case "false", "0", "no":
			return 0, true, nil
		}
		return 0, false, fmt.Errorf("core: %q is not a boolean", text)
	case DTDate:
		for _, layout := range []string{"2006-01-02", time.RFC3339} {
			if ts, perr := time.Parse(layout, t); perr == nil {
				return float64(ts.Unix()), true, nil
			}
		}
		return 0, false, fmt.Errorf("core: %q is not a date (want YYYY-MM-DD or RFC3339)", text)
	}
	return 0, false, fmt.Errorf("core: invalid data type %d", d)
}

// mayBeFloat reports whether strconv.ParseFloat could accept t: its
// first byte must start a sign, a digit, a point, "inf" or "nan".
func mayBeFloat(t string) bool {
	if t == "" {
		return false
	}
	switch c := t[0]; {
	case c >= '0' && c <= '9', c == '+', c == '-', c == '.', c == 'i', c == 'I', c == 'n', c == 'N':
		return true
	}
	return false
}

// AttrDef is a metadata attribute definition (§2): a unique internal ID,
// the (name, source) identity, the parent definition for sub-attributes,
// and the schema order locating the attribute's CLOBs in the global
// ordering. Structural definitions come from the annotated schema (Source
// is empty: "the element tag was used for the name, but the source was
// not necessary"); dynamic definitions are registered by administrators
// (Owner empty) or privately by users.
type AttrDef struct {
	ID          int64
	Name        string
	Source      string
	ParentID    int64 // 0 for top-level attributes
	SchemaOrder int   // global order of the schema node whose CLOBs carry it
	Queryable   bool
	Dynamic     bool
	Owner       string // "" = admin-level (visible to everyone)
}

// TopLevel reports whether the definition is a top-level attribute.
func (d *AttrDef) TopLevel() bool { return d.ParentID == 0 }

// ElemDef is a metadata element definition (§2): each element belongs to
// exactly one attribute definition and carries a data type used for
// insert-time validation.
type ElemDef struct {
	ID     int64
	AttrID int64
	Name   string
	Source string
	Type   DataType
	Owner  string
}
