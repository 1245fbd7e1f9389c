package catalog

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"strings"

	"github.com/gridmeta/hybridcat/internal/core"
	"github.com/gridmeta/hybridcat/internal/faultio"
	"github.com/gridmeta/hybridcat/internal/relstore"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

// Snapshot persistence: Save serializes the catalog's definitions and
// data rows; Load rebuilds a catalog over the same schema. The schema
// itself is code (or DSL) and travels separately — Load verifies the
// provided schema matches by name and ordering signature, then fills
// each table in row-ID order and builds its indexes bottom-up from their
// sorted entries (relstore.Table.BulkLoad).
//
// On-disk container (version 3):
//
//	magic    8 bytes  "HCSNAP03"
//	payload  uvarint header length, gob-encoded snapshot header;
//	         then per dataTables entry, in order: uvarint row count and
//	         the rows in relstore's row codec
//	length   u64      payload length
//	crc      u32      CRC-32C of the payload
//
// The length and checksum trail the payload so the writer can stream it
// from a pinned version without buffering the catalog. The trailer makes
// truncation and bit rot loud: Load verifies the length and checksum
// before decoding, so a torn or corrupted snapshot returns an error
// instead of half-loading. SaveFile writes the container atomically
// (temp file + fsync + rename), the checkpoint protocol's first half;
// see durable.go for the WAL side.

const (
	snapshotMagic = "HCSNAP03"
	// snapshotMagicFamily prefixes every container version's magic, so an
	// older format is refused by name rather than as garbage.
	snapshotMagicFamily = "HCSNAP"
	// snapshotVersion guards the payload format. Version 2 added the
	// checksummed container and the WalSeq watermark; version 3 replaced
	// the gob-encoded rows with relstore's row codec and moved the length
	// and checksum to a trailer.
	snapshotVersion = 3
	// snapshotTrailer is the u64 payload length plus the u32 CRC.
	snapshotTrailer = 12
	// maxSnapshotBytes bounds the payload Load reads, so a stream that
	// never ends cannot exhaust memory.
	maxSnapshotBytes = int64(1) << 40
)

// dataTables are the tables whose rows a snapshot carries; the
// definitions travel in its header.
var dataTables = []string{TObjects, TAttrData, TElemData, TSubAttrs, TClobs, TCollections, TMembers}

// parentLayouts maps each data table whose columns changed to its
// previous layout: the width of a row written under it and the
// positions of the columns the table still stores, ascending. Load
// projects a row of that width onto those positions, so a snapshot an
// older build wrote still loads; the row codec is unchanged, so the
// container magic is too.
var parentLayouts = map[string]struct {
	width int
	keep  []int
}{
	TAttrData: {4, []int{0, 1, 2}},       // drops clob_seq
	TElemData: {7, []int{0, 2, 3, 5, 6}}, // drops attr_id, elem_seq
	TSubAttrs: {6, []int{0, 1, 2, 3, 4}}, // drops depth
	TClobs:    {6, []int{0, 1, 2, 5}},    // drops attr_id, seq_id
}

// snapshot is the container's header: everything but the data rows.
type snapshot struct {
	Version    int
	SchemaName string
	SchemaSig  string
	// WalSeq is the write-ahead log high-water mark whose effects the
	// snapshot contains; recovery replays only records above it.
	WalSeq uint64
	Attrs  []core.AttrDef
	Elems  []core.ElemDef
	// IDMarks holds each ID allocator's high-water mark by table
	// (objects, collections): every ID handed out before the snapshot
	// was pinned, deleted ones included, is at or below it. Headers
	// written before the marks were recorded decode it as nil.
	IDMarks map[string]int64
}

// schemaSig fingerprints the global ordering so Load rejects a
// mismatched schema.
func schemaSig(s *xmlschema.Schema) string {
	sig := ""
	for _, n := range s.Ordered {
		sig += fmt.Sprintf("%s/%d/%d;", n.Tag, n.Order, n.LastChild)
	}
	return sig
}

// pin is an immutable view of everything a snapshot carries: one
// relstore version, the registry's definitions and the log watermark
// the version contains. Writing it needs no lock.
type pin struct {
	db      *relstore.Snapshot
	attrs   []*core.AttrDef
	elems   []*core.ElemDef
	walSeq  uint64
	idMarks map[string]int64
}

// pinLocked captures a pin; c.mu must be held (read or write). The
// database is pinned before the registry, so every definition a pinned
// row references is present (registry versions are copy-on-write, so
// the definition pointers stay valid). The watermark is the PUBLISHED
// sequence, not the log's LastSeq: the log may hold records whose staged
// versions are not yet visible, and the pinned version does not contain
// them — claiming their sequences would make recovery skip them. Writers
// publish without c.mu, so the version and its sequence are read
// together under the durability mutex they publish under. The ID
// allocators are read after the version is pinned: they only advance,
// so the marks cover every ID the version holds, and an ID handed out
// since only raises a mark, which skips IDs and never reissues one.
func (c *Catalog) pinLocked() pin {
	var p pin
	if d := c.dur; d != nil {
		d.mu.Lock()
		p.db = c.DB.Snapshot()
		p.walSeq = d.publishedSeq
		d.mu.Unlock()
	} else {
		p.db = c.DB.Snapshot()
	}
	p.attrs = c.Reg.Attrs()
	p.elems = c.Reg.Elems()
	p.idMarks = make(map[string]int64, len(idTables))
	for _, name := range idTables {
		p.idMarks[name] = c.DB.MustTable(name).AutoID()
	}
	return p
}

// Save writes a snapshot of the catalog (definitions plus all object,
// shredded, CLOB, and collection rows) in the checksummed container
// format. The catalog lock is held only to pin the state; encoding and
// writing run without it.
func (c *Catalog) Save(w io.Writer) error {
	c.mu.RLock()
	p := c.pinLocked()
	c.mu.RUnlock()
	return writeSnapshot(c.Schema, p, w)
}

var snapshotCRC = crc32.MakeTable(crc32.Castagnoli)

// snapshotWriter streams a container through one buffer, keeping the
// running length and checksum of the payload bytes for the trailer.
type snapshotWriter struct {
	bw  *bufio.Writer
	n   uint64
	crc uint32
}

// payload writes b as payload bytes. b may be bw.AvailableBuffer()
// extended in place, which saves a copy.
func (s *snapshotWriter) payload(b []byte) error {
	s.n += uint64(len(b))
	s.crc = crc32.Update(s.crc, snapshotCRC, b)
	_, err := s.bw.Write(b)
	return err
}

// writeSnapshot streams p in the container format to w.
func writeSnapshot(schema *xmlschema.Schema, p pin, w io.Writer) error {
	hdr := snapshot{
		Version:    snapshotVersion,
		SchemaName: schema.Name,
		SchemaSig:  schemaSig(schema),
		WalSeq:     p.walSeq,
		IDMarks:    p.idMarks,
		Attrs:      make([]core.AttrDef, len(p.attrs)),
		Elems:      make([]core.ElemDef, len(p.elems)),
	}
	for i, d := range p.attrs {
		hdr.Attrs[i] = *d
	}
	for i, d := range p.elems {
		hdr.Elems[i] = *d
	}
	var hb bytes.Buffer
	if err := gob.NewEncoder(&hb).Encode(&hdr); err != nil {
		return err
	}
	s := snapshotWriter{bw: bufio.NewWriterSize(w, 64<<10)}
	if _, err := s.bw.WriteString(snapshotMagic); err != nil {
		return err
	}
	if err := s.payload(binary.AppendUvarint(s.bw.AvailableBuffer(), uint64(hb.Len()))); err != nil {
		return err
	}
	if err := s.payload(hb.Bytes()); err != nil {
		return err
	}
	// The definitions go out in a write of their own, ahead of the rows,
	// as the version-2 container's header did: a crash can then tear the
	// file between the two sections as well as inside either.
	if err := s.bw.Flush(); err != nil {
		return err
	}
	for _, name := range dataTables {
		t := p.db.MustTable(name)
		if err := s.payload(binary.AppendUvarint(s.bw.AvailableBuffer(), uint64(t.Len()))); err != nil {
			return err
		}
		var err error
		t.Scan(func(_ int64, r relstore.Row) bool {
			err = s.payload(relstore.AppendRow(s.bw.AvailableBuffer(), r))
			return err == nil
		})
		if err != nil {
			return err
		}
	}
	trailer := binary.LittleEndian.AppendUint64(s.bw.AvailableBuffer(), s.n)
	trailer = binary.LittleEndian.AppendUint32(trailer, s.crc)
	if _, err := s.bw.Write(trailer); err != nil {
		return err
	}
	return s.bw.Flush()
}

// Load rebuilds a catalog from a snapshot over the given schema. The
// schema must match the one the snapshot was written against. Truncated
// or corrupted snapshot bytes return an error; nothing half-loads.
func Load(schema *xmlschema.Schema, opts Options, r io.Reader) (*Catalog, error) {
	c, _, err := loadSnapshot(schema, opts, r, -1)
	return c, err
}

// loadSnapshot is Load exposing the snapshot's WAL watermark, which
// recovery needs to know where replay starts. size is the snapshot's
// length in bytes when the caller knows it, negative otherwise (see
// readSnapshot).
func loadSnapshot(schema *xmlschema.Schema, opts Options, r io.Reader, size int64) (*Catalog, uint64, error) {
	snap, rows, err := readSnapshot(r, size)
	if err != nil {
		return nil, 0, err
	}
	if snap.Version != snapshotVersion {
		return nil, 0, fmt.Errorf("catalog: snapshot version %d, want %d", snap.Version, snapshotVersion)
	}
	if snap.SchemaName != schema.Name || snap.SchemaSig != schemaSig(schema) {
		return nil, 0, fmt.Errorf("catalog: snapshot was written against schema %q with a different ordering", snap.SchemaName)
	}
	c, err := Open(schema, opts)
	if err != nil {
		return nil, 0, err
	}
	if err := c.Reg.Restore(snap.Attrs, snap.Elems); err != nil {
		return nil, 0, err
	}
	c.marks = c.Reg.Snapshot().Marks()
	// The whole restore runs as one relstore transaction: one published
	// version. Each table is filled in row-ID order and its indexes are
	// built bottom-up from sorted entries (relstore.Table.BulkLoad). Each
	// row decodes into the same scratch row, which BulkLoad copies: a
	// fresh one per row would leave a garbage row between live ones and
	// fragment the heap.
	err = c.withTx(func() error {
		var row relstore.Row
		for _, name := range dataTables {
			parent, migrates := parentLayouts[name]
			n, k := binary.Uvarint(rows)
			if k <= 0 || n > uint64(len(rows)-k) {
				return fmt.Errorf("catalog: corrupt snapshot: bad %s row count", name)
			}
			rows = rows[k:]
			var corrupt error
			err := c.wtab(name).BulkLoad(int(n), func() (relstore.Row, error) {
				if row, rows, corrupt = relstore.ReadRow(row, rows); corrupt != nil {
					corrupt = fmt.Errorf("catalog: corrupt snapshot: %s: %w", name, corrupt)
					return nil, corrupt
				}
				if migrates && len(row) == parent.width {
					for i, p := range parent.keep {
						row[i] = row[p]
					}
					row = row[:len(parent.keep)]
				}
				return row, nil
			})
			if corrupt != nil {
				return corrupt
			}
			if err != nil {
				return fmt.Errorf("catalog: restoring %s: %w", name, err)
			}
		}
		if len(rows) != 0 {
			return fmt.Errorf("catalog: corrupt snapshot: %d trailing payload bytes", len(rows))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	// Advance the ID allocators past every ID the writer handed out.
	// Headers from before the marks were recorded carry none: the
	// highest restored ID is then the best bound there is.
	for _, name := range idTables {
		t := c.DB.MustTable(name)
		m := snap.IDMarks[name]
		t.Scan(func(_ int64, r relstore.Row) bool {
			m = max(m, r[0].I)
			return true
		})
		t.EnsureAutoID(m)
	}
	return c, snap.WalSeq, nil
}

// readSnapshot validates the container — magic, trailer length against
// the bytes present, checksum — and decodes the header, returning it
// with the undecoded row section of the payload. A non-negative size is
// the container's length (a file's): the bytes after the magic are read
// into one buffer of exactly that length. A negative size reads to the
// end of r, at most maxSnapshotBytes of payload.
func readSnapshot(r io.Reader, size int64) (*snapshot, []byte, error) {
	var magic [len(snapshotMagic)]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, nil, fmt.Errorf("catalog: corrupt snapshot: short header: %w", err)
	}
	if got := string(magic[:]); got != snapshotMagic {
		if strings.HasPrefix(got, snapshotMagicFamily) {
			return nil, nil, fmt.Errorf("catalog: snapshot format %s, this build reads %s", got, snapshotMagic)
		}
		return nil, nil, fmt.Errorf("catalog: corrupt snapshot: bad magic %q", got)
	}
	var rest []byte
	var err error
	switch n := size - int64(len(magic)); {
	case size < 0:
		rest, err = io.ReadAll(io.LimitReader(r, maxSnapshotBytes+snapshotTrailer+1))
	case n > maxSnapshotBytes+snapshotTrailer:
		return nil, nil, fmt.Errorf("catalog: corrupt snapshot: payload exceeds %d bytes", maxSnapshotBytes)
	default:
		rest = make([]byte, max(n, 0))
		_, err = io.ReadFull(r, rest)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("catalog: reading snapshot: %w", err)
	}
	if len(rest) < snapshotTrailer {
		return nil, nil, fmt.Errorf("catalog: corrupt snapshot: truncated trailer (%d bytes)", len(rest))
	}
	if int64(len(rest)) > maxSnapshotBytes+snapshotTrailer {
		return nil, nil, fmt.Errorf("catalog: corrupt snapshot: payload exceeds %d bytes", maxSnapshotBytes)
	}
	payload, trailer := rest[:len(rest)-snapshotTrailer], rest[len(rest)-snapshotTrailer:]
	if length := binary.LittleEndian.Uint64(trailer); length != uint64(len(payload)) {
		return nil, nil, fmt.Errorf("catalog: corrupt snapshot: trailer claims %d payload bytes, %d present", length, len(payload))
	}
	if crc32.Checksum(payload, snapshotCRC) != binary.LittleEndian.Uint32(trailer[8:]) {
		return nil, nil, fmt.Errorf("catalog: corrupt snapshot: checksum mismatch")
	}
	n, k := binary.Uvarint(payload)
	if k <= 0 || n > uint64(len(payload)-k) {
		return nil, nil, fmt.Errorf("catalog: corrupt snapshot: bad header length")
	}
	var snap snapshot
	if err := gob.NewDecoder(bytes.NewReader(payload[k : k+int(n)])).Decode(&snap); err != nil {
		return nil, nil, fmt.Errorf("catalog: corrupt snapshot: %w", err)
	}
	return &snap, payload[k+int(n):], nil
}

// idTables are the tables whose first column is an ID the catalog
// allocates (NextAutoID). A local ID is never reissued, even after the
// row is deleted: clients and followers may still hold it, and the
// response cache's content stamp relies on it (see builtDoc).
var idTables = []string{TObjects, TCollections}

// SaveFile atomically writes a snapshot to path: the container is
// written to path+".tmp", synced to stable storage, and renamed over
// path, so a crash at any instant leaves either the old snapshot or the
// new one — never a torn file. A nil fs uses the real filesystem. As
// with Save, the catalog lock is held only to pin the state.
func (c *Catalog) SaveFile(fs faultio.FS, path string) error {
	c.mu.RLock()
	p := c.pinLocked()
	c.mu.RUnlock()
	return saveFile(fs, path, c.Schema, p)
}

// saveFile atomically writes the pinned state p to path (see SaveFile).
func saveFile(fs faultio.FS, path string, schema *xmlschema.Schema, p pin) error {
	if fs == nil {
		fs = faultio.OS{}
	}
	return faultio.WriteAtomic(fs, path, func(w io.Writer) error {
		return writeSnapshot(schema, p, w)
	})
}
