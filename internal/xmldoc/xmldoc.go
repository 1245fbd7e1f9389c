// Package xmldoc provides the document model shared by the catalog and
// the baseline stores: a light DOM built on encoding/xml, a serializer,
// and canonical comparison helpers.
//
// Grid metadata documents (FGDC/LEAD profiles) are element-structured:
// mixed content is not meaningful, so text is retained only on leaf
// elements and inter-element whitespace is dropped.
package xmldoc

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Attr is one XML attribute.
type Attr struct {
	Name  string
	Value string
}

// Node is one element in a document tree.
type Node struct {
	Tag      string
	Attrs    []Attr
	Text     string // leaf text content; empty for interior nodes
	Children []*Node
	Parent   *Node
}

// NewNode returns a parentless node.
func NewNode(tag string) *Node { return &Node{Tag: tag} }

// NewLeaf returns a leaf node with text content.
func NewLeaf(tag, text string) *Node { return &Node{Tag: tag, Text: text} }

// Append adds children, setting their Parent, and returns n for chaining.
func (n *Node) Append(children ...*Node) *Node {
	for _, c := range children {
		c.Parent = n
		n.Children = append(n.Children, c)
	}
	return n
}

// IsLeaf reports whether the node has no element children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Attr returns the value of the named XML attribute.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// Child returns the first child with the given tag, or nil.
func (n *Node) Child(tag string) *Node {
	for _, c := range n.Children {
		if c.Tag == tag {
			return c
		}
	}
	return nil
}

// ChildText returns the text of the first child with the given tag.
func (n *Node) ChildText(tag string) string {
	if c := n.Child(tag); c != nil {
		return c.Text
	}
	return ""
}

// ChildrenByTag returns all children with the given tag, in order.
func (n *Node) ChildrenByTag(tag string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Tag == tag {
			out = append(out, c)
		}
	}
	return out
}

// Walk visits n and its descendants preorder; fn returning false prunes
// the subtree.
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// FindAll returns every descendant (including n) with the given tag, in
// document order.
func (n *Node) FindAll(tag string) []*Node {
	var out []*Node
	n.Walk(func(x *Node) bool {
		if x.Tag == tag {
			out = append(out, x)
		}
		return true
	})
	return out
}

// Clone deep-copies the subtree; the copy has a nil Parent.
func (n *Node) Clone() *Node {
	c := &Node{Tag: n.Tag, Text: n.Text}
	if len(n.Attrs) > 0 {
		c.Attrs = append([]Attr(nil), n.Attrs...)
	}
	for _, ch := range n.Children {
		cc := ch.Clone()
		cc.Parent = c
		c.Children = append(c.Children, cc)
	}
	return c
}

// Depth returns the number of ancestors above n.
func (n *Node) Depth() int {
	d := 0
	for p := n.Parent; p != nil; p = p.Parent {
		d++
	}
	return d
}

// Path returns the /-joined tag path from the root to n.
func (n *Node) Path() string {
	var tags []string
	for x := n; x != nil; x = x.Parent {
		tags = append(tags, x.Tag)
	}
	for i, j := 0, len(tags)-1; i < j; i, j = i+1, j-1 {
		tags[i], tags[j] = tags[j], tags[i]
	}
	return "/" + strings.Join(tags, "/")
}

// CountNodes returns the number of elements in the subtree.
func (n *Node) CountNodes() int {
	c := 0
	n.Walk(func(*Node) bool { c++; return true })
	return c
}

// Parse reads one XML document into a node tree. Inter-element whitespace
// is discarded; text inside an element with child elements is rejected
// (grid metadata has no mixed content). Comments and processing
// instructions are skipped.
func Parse(r io.Reader) (*Node, error) {
	dec := xml.NewDecoder(r)
	var root *Node
	var stack []*Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmldoc: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := NewNode(t.Name.Local)
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				n.Attrs = append(n.Attrs, Attr{Name: a.Name.Local, Value: a.Value})
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("xmldoc: multiple root elements")
				}
				root = n
			} else {
				top := stack[len(stack)-1]
				if top.Text != "" {
					return nil, fmt.Errorf("xmldoc: mixed content under <%s>", top.Tag)
				}
				top.Append(n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmldoc: unbalanced end element %s", t.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			text := strings.TrimSpace(string(t))
			if text == "" {
				continue
			}
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmldoc: text outside root element")
			}
			top := stack[len(stack)-1]
			if len(top.Children) > 0 {
				return nil, fmt.Errorf("xmldoc: mixed content under <%s>", top.Tag)
			}
			if top.Text != "" {
				top.Text += text
			} else {
				top.Text = text
			}
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xmldoc: empty document")
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmldoc: unclosed element <%s>", stack[len(stack)-1].Tag)
	}
	return root, nil
}

// ParseString parses a document held in a string.
func ParseString(s string) (*Node, error) { return Parse(strings.NewReader(s)) }

// WriteTo serializes the subtree. With indent > 0 the output is
// pretty-printed using that many spaces per level.
func (n *Node) WriteTo(w io.Writer, indent int) error {
	bw := &errWriter{w: w}
	n.write(bw, indent, 0)
	return bw.err
}

// String serializes compactly (no indentation).
func (n *Node) String() string {
	var b bytes.Buffer
	_ = n.WriteTo(&b, 0)
	return b.String()
}

// Pretty serializes with two-space indentation.
func (n *Node) Pretty() string {
	var b bytes.Buffer
	_ = n.WriteTo(&b, 2)
	return b.String()
}

type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) WriteString(s string) {
	if e.err != nil {
		return
	}
	_, e.err = io.WriteString(e.w, s)
}

func (n *Node) write(w *errWriter, indent, depth int) {
	pad := ""
	if indent > 0 {
		pad = strings.Repeat(" ", indent*depth)
	}
	w.WriteString(pad)
	w.WriteString("<")
	w.WriteString(n.Tag)
	for _, a := range n.Attrs {
		w.WriteString(" ")
		w.WriteString(a.Name)
		w.WriteString(`="`)
		w.WriteString(EscapeAttr(a.Value))
		w.WriteString(`"`)
	}
	if n.IsLeaf() && n.Text == "" {
		w.WriteString("/>")
		if indent > 0 {
			w.WriteString("\n")
		}
		return
	}
	w.WriteString(">")
	if n.IsLeaf() {
		w.WriteString(EscapeText(n.Text))
	} else {
		if indent > 0 {
			w.WriteString("\n")
		}
		for _, c := range n.Children {
			c.write(w, indent, depth+1)
		}
		w.WriteString(pad)
	}
	w.WriteString("</")
	w.WriteString(n.Tag)
	w.WriteString(">")
	if indent > 0 {
		w.WriteString("\n")
	}
}

// A Replacer builds its lookup tables on first use and is safe for
// concurrent use, so one of each serves every serialization.
var (
	textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	attrEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
)

// EscapeText escapes character data.
func EscapeText(s string) string { return textEscaper.Replace(s) }

// EscapeAttr escapes attribute values.
func EscapeAttr(s string) string { return attrEscaper.Replace(s) }

// Equal compares two trees structurally: tags, sorted attributes, leaf
// text, and child order must all match.
func Equal(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Tag != b.Tag || a.Text != b.Text || len(a.Children) != len(b.Children) || len(a.Attrs) != len(b.Attrs) {
		return false
	}
	if !attrsEqual(a.Attrs, b.Attrs) {
		return false
	}
	for i := range a.Children {
		if !Equal(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// EqualUnordered compares trees ignoring sibling order: each child of a
// must match a distinct child of b. Useful when comparing query responses
// whose attribute instances may legally interleave.
func EqualUnordered(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Tag != b.Tag || a.Text != b.Text || len(a.Children) != len(b.Children) || !attrsEqual(a.Attrs, b.Attrs) {
		return false
	}
	used := make([]bool, len(b.Children))
	for _, ca := range a.Children {
		found := false
		for j, cb := range b.Children {
			if !used[j] && EqualUnordered(ca, cb) {
				used[j] = true
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func attrsEqual(a, b []Attr) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]Attr(nil), a...)
	bs := append([]Attr(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i].Name < as[j].Name })
	sort.Slice(bs, func(i, j int) bool { return bs[i].Name < bs[j].Name })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// Diff returns a human-readable description of the first structural
// difference between two trees, or "" when they are Equal. Used by tests.
func Diff(a, b *Node) string {
	return diff(a, b, "/")
}

func diff(a, b *Node, path string) string {
	switch {
	case a == nil && b == nil:
		return ""
	case a == nil || b == nil:
		return fmt.Sprintf("%s: one side missing", path)
	case a.Tag != b.Tag:
		return fmt.Sprintf("%s: tag %q vs %q", path, a.Tag, b.Tag)
	case a.Text != b.Text:
		return fmt.Sprintf("%s%s: text %q vs %q", path, a.Tag, a.Text, b.Text)
	case !attrsEqual(a.Attrs, b.Attrs):
		return fmt.Sprintf("%s%s: attrs %v vs %v", path, a.Tag, a.Attrs, b.Attrs)
	case len(a.Children) != len(b.Children):
		return fmt.Sprintf("%s%s: %d children vs %d", path, a.Tag, len(a.Children), len(b.Children))
	}
	for i := range a.Children {
		if d := diff(a.Children[i], b.Children[i], path+a.Tag+"/"); d != "" {
			return d
		}
	}
	return ""
}
