package catalog

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/gridmeta/hybridcat/internal/core"
	"github.com/gridmeta/hybridcat/internal/xmldoc"
)

// Log records are logical: a record holds one commit's mutations as the
// API received them, the decisions made outside the document (IDs, the
// created time, the Lenient bit) and the definitions the mutation
// added. A document's rows are a pure function of those, so recovery,
// follower apply and rebalance import re-derive them through the apply
// function the live API calls (catalog.go, collections.go).

// opKind tags one logged mutation.
type opKind byte

// Logged mutation kinds. The values are the on-disk encoding.
const (
	opDefineAttr opKind = iota + 1
	opDefineElem
	opIngest
	opAddAttribute
	opDelete
	opSetPublished
	opCreateCollection
	opAddMember
	opRemoveMember
)

// op is one logged mutation. Which fields a kind carries is fixed by
// op.fields, the one description the encoder and the decoder share.
type op struct {
	kind      opKind
	lenient   bool // ingest, add_attribute: the Lenient bit the shred ran with
	published bool // set_published
	// id names the object — or, for create_collection, the new
	// collection.
	id int64
	// coll is the collection of add_member and remove_member, and the
	// parent of create_collection (0 for a root collection).
	coll    int64
	owner   string
	created string // ingest
	name    string // create_collection
	// xml is the document (ingest) or fragment (add_attribute). doc is
	// its tree: an API caller's, serialized into xml only when the op is
	// encoded, or replay's parse of xml.
	xml  string
	doc  *xmldoc.Node
	attr *core.AttrDef // define_attr
	elem *core.ElemDef // define_elem
}

// recordFormat is a log payload's first byte. The physical row-op
// payloads of the HCWAL02 era began with an op count instead, so one
// that arrives over a replication stream is refused here.
const recordFormat = 0xC3

var errShortField = errors.New("short field")

// fieldCodec encodes or decodes one op's fields: out collects encoded
// bytes; when decoding, in holds the unread input and err the first
// failure, after which every read is a no-op. Encoding only reads the
// fields: a define op points at the definition set's shared definition.
type fieldCodec struct {
	decoding bool
	out, in  []byte
	err      error
}

func varint[T ~int | ~int64](f *fieldCodec, v *T) {
	if !f.decoding {
		f.out = binary.AppendVarint(f.out, int64(*v))
		return
	}
	if f.err != nil {
		return
	}
	x, n := binary.Varint(f.in)
	if n <= 0 {
		f.err = errShortField
		return
	}
	*v, f.in = T(x), f.in[n:]
}

func (f *fieldCodec) str(s *string) {
	if !f.decoding {
		f.out = binary.AppendUvarint(f.out, uint64(len(*s)))
		f.out = append(f.out, *s...)
		return
	}
	if f.err != nil {
		return
	}
	l, n := binary.Uvarint(f.in)
	if n <= 0 || l > uint64(len(f.in)-n) {
		f.err = errShortField
		return
	}
	*s, f.in = string(f.in[n:n+int(l)]), f.in[n+int(l):]
}

// enum carries a small enumeration; decoding refuses values above max.
func enum[T ~uint8](f *fieldCodec, b *T, max T) {
	if !f.decoding {
		f.out = append(f.out, byte(*b))
		return
	}
	if f.err != nil {
		return
	}
	if len(f.in) == 0 {
		f.err = errShortField
		return
	}
	if T(f.in[0]) > max {
		f.err = fmt.Errorf("value %d out of range", f.in[0])
		return
	}
	*b, f.in = T(f.in[0]), f.in[1:]
}

func (f *fieldCodec) bool(v *bool) {
	var b uint8
	if *v {
		b = 1
	}
	enum(f, &b, 1)
	if f.decoding {
		*v = b == 1
	}
}

// fields runs f over o's fields in their encoded order.
func (o *op) fields(f *fieldCodec) {
	switch o.kind {
	case opDefineAttr:
		if o.attr == nil {
			o.attr = new(core.AttrDef)
		}
		a := o.attr
		varint(f, &a.ID)
		f.str(&a.Name)
		f.str(&a.Source)
		varint(f, &a.ParentID)
		varint(f, &a.SchemaOrder)
		f.bool(&a.Queryable)
		f.bool(&a.Dynamic)
		f.str(&a.Owner)
	case opDefineElem:
		if o.elem == nil {
			o.elem = new(core.ElemDef)
		}
		e := o.elem
		varint(f, &e.ID)
		varint(f, &e.AttrID)
		f.str(&e.Name)
		f.str(&e.Source)
		enum(f, &e.Type, core.DTDate)
		f.str(&e.Owner)
	case opIngest:
		varint(f, &o.id)
		f.str(&o.owner)
		f.str(&o.created)
		f.bool(&o.lenient)
		f.str(&o.xml)
	case opAddAttribute:
		varint(f, &o.id)
		f.str(&o.owner)
		f.bool(&o.lenient)
		f.str(&o.xml)
	case opDelete:
		varint(f, &o.id)
	case opSetPublished:
		varint(f, &o.id)
		f.bool(&o.published)
	case opCreateCollection:
		varint(f, &o.id)
		f.str(&o.name)
		f.str(&o.owner)
		varint(f, &o.coll)
	case opAddMember, opRemoveMember:
		varint(f, &o.coll)
		varint(f, &o.id)
	default:
		f.err = errors.New("unknown op kind")
	}
}

// encodeRecord serializes one commit's ops as a log record payload: the
// format byte, then per op its kind byte and its fields — integers as
// varints, strings as a uvarint length and the bytes, flags as one byte
// each. An op holding a tree and no text serializes the tree here.
func encodeRecord(ops []op) []byte {
	f := fieldCodec{out: []byte{recordFormat}}
	for i := range ops {
		o := &ops[i]
		if o.xml == "" && o.doc != nil {
			o.xml = o.doc.String()
		}
		f.out = append(f.out, byte(o.kind))
		o.fields(&f)
	}
	return f.out
}

// decodeRecord parses a payload written by encodeRecord. Payloads also
// arrive from other processes (the replication stream, rebalance
// import), so malformed input — an unknown format or kind, a short
// field, trailing bytes — is an error, never a panic, and allocation is
// bounded by the input: every op takes at least two bytes, and every
// string is a copy of input bytes.
func decodeRecord(payload []byte) ([]op, error) {
	if len(payload) == 0 || payload[0] != recordFormat {
		return nil, errors.New("corrupt record: not a logical record")
	}
	f := fieldCodec{decoding: true, in: payload[1:]}
	var ops []op
	for len(f.in) > 0 {
		o := op{kind: opKind(f.in[0])}
		f.in = f.in[1:]
		o.fields(&f)
		if f.err != nil {
			return nil, fmt.Errorf("corrupt record: op %d (kind %d): %w", len(ops), o.kind, f.err)
		}
		ops = append(ops, o)
	}
	return ops, nil
}

// journal appends o to the record of the mutation holding the write
// lock. Apply functions call it once they have changed state, so a
// mutation that journals nothing changed nothing. A definition is
// journaled where it is added to the transaction's definitions, so it
// precedes every op that references it and follows the ops before it
// (an import keeps a user-private definition between the two ingests it
// separates), and a record carries only its own mutation's definitions.
// Replay outside a mutation (recovery, follower apply) records nothing.
func (c *Catalog) journal(o op) {
	if c.recording {
		c.rec = append(c.rec, o)
	}
}

// replayRecord decodes one log record payload and applies its ops in
// order through their kinds' apply functions, with the record's
// decisions. It returns the number of ops applied.
func (c *Catalog) replayRecord(payload []byte) (int, error) {
	ops, err := decodeRecord(payload)
	if err != nil {
		return 0, err
	}
	for i := range ops {
		if err := c.replay(&ops[i]); err != nil {
			return 0, fmt.Errorf("op %d (kind %d): %w", i, ops[i].kind, err)
		}
	}
	return len(ops), nil
}

// applyDefine adopts a logged definition at its logged ID in the
// transaction's definitions.
func (c *Catalog) applyDefine(o op) error {
	var err error
	if o.kind == opDefineAttr {
		err = c.draftDefs().AdoptAttr(*o.attr)
	} else {
		err = c.draftDefs().AdoptElem(*o.elem)
	}
	if err != nil {
		return err
	}
	c.journal(o)
	return nil
}

// replay applies one decoded op. Definitions are adopted at their
// logged IDs, and documents are re-shredded without auto-registration:
// every definition they reference precedes them in the log.
func (c *Catalog) replay(o *op) error {
	switch o.kind {
	case opDefineAttr, opDefineElem:
		return c.applyDefine(*o)
	case opIngest, opAddAttribute:
		doc, err := xmldoc.ParseString(o.xml)
		if err != nil {
			return err
		}
		o.doc = doc
		if o.kind == opIngest {
			return c.applyIngest(*o, false)
		}
		return c.applyAddAttribute(*o, false)
	case opDelete:
		return c.applyDelete(*o)
	case opSetPublished:
		return c.applySetPublished(*o)
	case opCreateCollection:
		return c.applyCreateCollection(*o)
	case opAddMember:
		return c.applyAddMember(*o)
	case opRemoveMember:
		return c.applyRemoveMember(*o)
	}
	return errors.New("unknown op kind")
}
