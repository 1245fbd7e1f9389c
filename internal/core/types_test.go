package core

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestDataTypeStringRoundTrip(t *testing.T) {
	for _, d := range []DataType{DTString, DTInt, DTFloat, DTBool, DTDate} {
		got, err := ParseDataType(d.String())
		if err != nil || got != d {
			t.Errorf("ParseDataType(%s) = %v, %v", d, got, err)
		}
	}
	if _, err := ParseDataType("complex"); err == nil {
		t.Error("unknown type should fail")
	}
	// Aliases.
	for alias, want := range map[string]DataType{
		"text": DTString, "integer": DTInt, "double": DTFloat,
		"number": DTFloat, "boolean": DTBool, "": DTString,
	} {
		if got, err := ParseDataType(alias); err != nil || got != want {
			t.Errorf("ParseDataType(%q) = %v, %v", alias, got, err)
		}
	}
}

func TestValidateValue(t *testing.T) {
	cases := []struct {
		dt      DataType
		text    string
		wantNum float64
		hasNum  bool
		wantErr bool
	}{
		{DTString, "anything", 0, false, false},
		{DTString, "100.000", 100, true, false}, // numeric shadow for strings
		{DTInt, "42", 42, true, false},
		{DTInt, "4.2", 0, false, true},
		{DTInt, "abc", 0, false, true},
		{DTFloat, "100.000", 100, true, false},
		{DTFloat, "1e3", 1000, true, false},
		{DTFloat, "xyz", 0, false, true},
		{DTBool, "true", 1, true, false},
		{DTBool, "0", 0, true, false},
		{DTBool, "maybe", 0, false, true},
		{DTDate, "2006-05-12", 1147392000, true, false},
		{DTDate, "not-a-date", 0, false, true},
	}
	for _, c := range cases {
		num, hasNum, err := c.dt.ValidateValue(c.text)
		if (err != nil) != c.wantErr {
			t.Errorf("%s.Validate(%q) err = %v", c.dt, c.text, err)
			continue
		}
		if err == nil && (hasNum != c.hasNum || (hasNum && num != c.wantNum)) {
			t.Errorf("%s.Validate(%q) = %g, %v; want %g, %v", c.dt, c.text, num, hasNum, c.wantNum, c.hasNum)
		}
	}
}

// TestStringNumericShadowMatchesParseFloat: a string's numeric shadow
// is exactly what strconv.ParseFloat accepts, though text that cannot
// start a number never reaches it; a plain word costs no allocation.
func TestStringNumericShadowMatchesParseFloat(t *testing.T) {
	for _, text := range []string{
		"", " ", "0", "42", "-7", "+7", "+-7", "1e3", "1E-3", "-1.5e+10", ".5", "5.", ".", "-.5e1",
		"0x1p-2", "0X1.8P3", "-0x10", "0x", "0x_1p0", "1_000", "_1",
		"inf", "Inf", "+inf", "-Infinity", "INFINITY", "infinit", "nan", "NaN", "-nan", "nanx",
		"anything", "ARPS", "e10", "E", "x1", "1 2", "12abc", " 100.000 ", "\t3\n", "N/A", "none",
	} {
		want, perr := strconv.ParseFloat(strings.TrimSpace(text), 64)
		num, hasNum, err := DTString.ValidateValue(text)
		if err != nil {
			t.Fatalf("string.Validate(%q) err = %v", text, err)
		}
		same := num == want || (math.IsNaN(num) && math.IsNaN(want))
		if hasNum != (perr == nil) || (hasNum && !same) {
			t.Errorf("string.Validate(%q) = %g, %v; ParseFloat = %g, %v", text, num, hasNum, want, perr)
		}
	}
	if n := testing.AllocsPerRun(100, func() { DTString.ValidateValue("anything") }); n != 0 {
		t.Errorf("a word's numeric shadow allocates %v times", n)
	}
}
