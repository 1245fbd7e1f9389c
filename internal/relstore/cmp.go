package relstore

import "fmt"

// CmpOp enumerates comparison operators.
type CmpOp uint8

// Comparison operators.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

var cmpNames = map[CmpOp]string{OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">="}

// ParseCmpOp parses a comparison operator as spelled in a JSON query's
// "op" field.
func ParseCmpOp(s string) (CmpOp, error) {
	switch s {
	case "=", "==":
		return OpEq, nil
	case "<>", "!=":
		return OpNe, nil
	case "<":
		return OpLt, nil
	case "<=":
		return OpLe, nil
	case ">":
		return OpGt, nil
	case ">=":
		return OpGe, nil
	}
	return 0, fmt.Errorf("relstore: unknown comparison operator %q", s)
}

// String returns the canonical spelling of the operator.
func (o CmpOp) String() string { return cmpNames[o] }

// Holds reports whether "a o b" holds under the engine's total order, with
// SQL NULL semantics: any comparison with NULL is false.
func (o CmpOp) Holds(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	c := Compare(a, b)
	switch o {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	}
	return false
}
