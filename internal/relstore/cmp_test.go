package relstore

import "testing"

func TestCmpOpHolds(t *testing.T) {
	cases := []struct {
		op   CmpOp
		a, b Value
		want bool
	}{
		{OpEq, Int(1), Int(1), true},
		{OpEq, Int(1), Float(1.0), true},
		{OpNe, Int(1), Int(2), true},
		{OpLt, Str("a"), Str("b"), true},
		{OpLe, Int(2), Int(2), true},
		{OpGt, Float(2.5), Int(2), true},
		{OpGe, Int(2), Int(3), false},
		// NULL never compares.
		{OpEq, Null(), Null(), false},
		{OpNe, Null(), Int(1), false},
	}
	for _, c := range cases {
		if got := c.op.Holds(c.a, c.b); got != c.want {
			t.Errorf("%v %v %v = %v, want %v", c.a, c.op, c.b, got, c.want)
		}
	}
}

func TestParseCmpOp(t *testing.T) {
	for s, want := range map[string]CmpOp{"=": OpEq, "==": OpEq, "<>": OpNe, "!=": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe} {
		got, err := ParseCmpOp(s)
		if err != nil || got != want {
			t.Errorf("ParseCmpOp(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseCmpOp("~"); err == nil {
		t.Error("ParseCmpOp(~) should fail")
	}
}
