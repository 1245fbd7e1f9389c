package xmldoc

import (
	"math/rand"
	"strings"
	"testing"
)

const sample = `<root>
  <a x="1" y="two">
    <b>hello</b>
    <b>world</b>
    <c/>
  </a>
  <d>5 &amp; 6 &lt;7&gt;</d>
</root>`

func TestParseBasics(t *testing.T) {
	n, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	if n.Tag != "root" || len(n.Children) != 2 {
		t.Fatalf("root = %s with %d children", n.Tag, len(n.Children))
	}
	a := n.Child("a")
	if a == nil || len(a.Attrs) != 2 {
		t.Fatalf("a = %+v", a)
	}
	if v, ok := a.Attr("y"); !ok || v != "two" {
		t.Errorf("attr y = %q, %v", v, ok)
	}
	if _, ok := a.Attr("z"); ok {
		t.Error("missing attr should report !ok")
	}
	bs := a.ChildrenByTag("b")
	if len(bs) != 2 || bs[0].Text != "hello" || bs[1].Text != "world" {
		t.Errorf("b children = %v", bs)
	}
	if !a.Child("c").IsLeaf() || a.IsLeaf() {
		t.Error("IsLeaf wrong")
	}
	if got := n.ChildText("d"); got != "5 & 6 <7>" {
		t.Errorf("entity decoding: %q", got)
	}
	if a.Parent != n || bs[0].Parent != a {
		t.Error("parent links wrong")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"   ",
		"<a><b></a></b>",
		"<a>text<b/></a>", // mixed content
		"<a/><b/>",        // multiple roots
		"<a><b></b>",      // unclosed (encoding/xml reports EOF -> unclosed)
	}
	for _, s := range bad {
		if _, err := ParseString(s); err == nil {
			t.Errorf("ParseString(%q) should fail", s)
		}
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	n, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	for _, out := range []string{n.String(), n.Pretty()} {
		m, err := ParseString(out)
		if err != nil {
			t.Fatalf("reparse of %q: %v", out, err)
		}
		if !Equal(n, m) {
			t.Errorf("round trip diff: %s", Diff(n, m))
		}
	}
}

func TestEscaping(t *testing.T) {
	n := NewNode("r")
	n.Attrs = append(n.Attrs, Attr{Name: "a", Value: `<&">`})
	n.Append(NewLeaf("t", "a<b & c>d"))
	out := n.String()
	m, err := ParseString(out)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Attr("a"); v != `<&">` {
		t.Errorf("attr round trip = %q", v)
	}
	if m.ChildText("t") != "a<b & c>d" {
		t.Errorf("text round trip = %q", m.ChildText("t"))
	}
}

func TestWalkFindAllClone(t *testing.T) {
	n, _ := ParseString(sample)
	if got := len(n.FindAll("b")); got != 2 {
		t.Errorf("FindAll(b) = %d", got)
	}
	count := 0
	n.Walk(func(x *Node) bool {
		count++
		return x.Tag != "a" // prune below a
	})
	if count != 3 { // root, a, d
		t.Errorf("pruned walk visited %d", count)
	}
	c := n.Clone()
	if !Equal(n, c) {
		t.Error("clone differs")
	}
	c.Child("a").Child("b").Text = "changed"
	if Equal(n, c) {
		t.Error("clone shares storage with original")
	}
	if c.Parent != nil {
		t.Error("clone should not have a parent")
	}
}

func TestDepthPathCount(t *testing.T) {
	n, _ := ParseString(sample)
	b := n.Child("a").Child("b")
	if b.Depth() != 2 {
		t.Errorf("depth = %d", b.Depth())
	}
	if b.Path() != "/root/a/b" {
		t.Errorf("path = %s", b.Path())
	}
	if n.CountNodes() != 6 {
		t.Errorf("count = %d", n.CountNodes())
	}
}

func TestEqualUnordered(t *testing.T) {
	a, _ := ParseString("<r><x>1</x><x>2</x><y>3</y></r>")
	b, _ := ParseString("<r><y>3</y><x>2</x><x>1</x></r>")
	if Equal(a, b) {
		t.Error("Equal should be order-sensitive")
	}
	if !EqualUnordered(a, b) {
		t.Error("EqualUnordered should match permuted siblings")
	}
	c, _ := ParseString("<r><x>1</x><x>1</x><y>3</y></r>")
	if EqualUnordered(a, c) {
		t.Error("EqualUnordered must respect multiplicity")
	}
}

// randomTree builds a random element tree for the round-trip property
// test.
func randomTree(rng *rand.Rand, depth int) *Node {
	tags := []string{"alpha", "beta", "gamma", "delta"}
	n := NewNode(tags[rng.Intn(len(tags))])
	if rng.Intn(3) == 0 {
		n.Attrs = append(n.Attrs, Attr{Name: "k", Value: randText(rng)})
	}
	if depth <= 0 || rng.Intn(3) == 0 {
		n.Text = randText(rng)
		return n
	}
	for i := 0; i < rng.Intn(4); i++ {
		n.Append(randomTree(rng, depth-1))
	}
	return n
}

func randText(rng *rand.Rand) string {
	chars := "abc<>&\"' xyz"
	ln := rng.Intn(8)
	var sb strings.Builder
	for i := 0; i < ln; i++ {
		sb.WriteByte(chars[rng.Intn(len(chars))])
	}
	// Leading/trailing whitespace is not preserved (grid metadata
	// semantics), so trim for comparison stability.
	return strings.TrimSpace(sb.String())
}

func TestSerializeParsePropertyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		n := randomTree(rng, 4)
		m, err := ParseString(n.String())
		if err != nil {
			t.Fatalf("trial %d: %v\nXML: %s", trial, err, n.String())
		}
		if !Equal(n, m) {
			t.Fatalf("trial %d: %s\nXML: %s", trial, Diff(n, m), n.String())
		}
	}
}

func TestEscape(t *testing.T) {
	if got, want := EscapeText(`a<b & "c">d`), `a&lt;b &amp; "c"&gt;d`; got != want {
		t.Errorf("EscapeText = %q, want %q", got, want)
	}
	if got, want := EscapeAttr(`a<b & "c">d`), `a&lt;b &amp; &quot;c&quot;&gt;d`; got != want {
		t.Errorf("EscapeAttr = %q, want %q", got, want)
	}
}

var escapeSink string

// BenchmarkEscape prices the escapers on the two inputs a response
// build sees: a plain value (the common case, returned as is) and one
// that needs rewriting. It runs both from several goroutines because
// the replacers are shared package state.
func BenchmarkEscape(b *testing.B) {
	for _, esc := range []struct {
		name string
		fn   func(string) string
	}{{"text", EscapeText}, {"attr", EscapeAttr}} {
		for _, in := range []struct{ name, s string }{
			{"plain", "Convective_Precipitation_Amount 2km"},
			{"special", `wind<10 & gust>"20"`},
		} {
			b.Run(esc.name+"/"+in.name, func(b *testing.B) {
				b.ReportAllocs()
				b.RunParallel(func(pb *testing.PB) {
					var s string
					for pb.Next() {
						s = esc.fn(in.s)
					}
					escapeSink = s
				})
			})
		}
	}
}
