package relstore

// Structural diff of one table between two versions. Row pages are
// copy-on-write (version.go): a transaction replaces a page only when it
// writes a slot in it, and a page reachable from a published version is
// never written again. Two versions of a table therefore share every
// untouched *rowPage, and a page copy shares every untouched Row with
// the page it was copied from. Comparing page pointers, then row
// identities inside the pages that differ, yields exactly the rows that
// changed — derived from the data itself, whoever wrote it (ingest,
// delete, WAL replay, rebalance import), with no hook on the write path.

// TableMark pins one table's row pages as of one version, and nothing
// else of that version: not its indexes, not the other tables. Holding
// a mark keeps superseded pages of that one table alive (24 bytes per
// row slot, plus the rows since deleted or replaced) until the mark is
// dropped; rows and pages still current are shared, not copied.
type TableMark struct {
	state *tableState
	pages []*rowPage
}

// Mark pins the row pages of the version this handle reads.
func (t *Table) Mark() *TableMark {
	tv := t.version()
	return &TableMark{state: tv.state, pages: tv.pages}
}

// Pages returns the number of row pages the mark pins.
func (m *TableMark) Pages() int { return len(m.pages) }

// Diff visits every row slot whose content differs between m and to, in
// row-ID order, as fn(id, old, new): old is the row under id in m, new
// the row in to, either nil when the slot is empty on that side. It is
// symmetric — to may be older or newer than m — and reads no page the
// two marks share.
//
// It reports false, without calling fn, when the marks are not of the
// same table (snapshot load, follower bootstrap) or
// when more than maxPages pages differ; the caller then rebuilds from a
// full scan.
func (m *TableMark) Diff(to *TableMark, maxPages int, fn func(id int64, old, new Row)) bool {
	if m.state != to.state {
		return false
	}
	n := max(len(m.pages), len(to.pages))
	changed := make([]int, 0, 8)
	for p := 0; p < n; p++ {
		if pageAt(m.pages, p) != pageAt(to.pages, p) {
			if len(changed) == maxPages {
				return false
			}
			changed = append(changed, p)
		}
	}
	var visited uint64
	for _, p := range changed {
		a, b := pageAt(m.pages, p), pageAt(to.pages, p)
		for s := 0; s < pageSize; s++ {
			var ra, rb Row
			if a != nil {
				ra = a.rows[s]
			}
			if b != nil {
				rb = b.rows[s]
			}
			if sameRow(ra, rb) {
				continue
			}
			visited++
			fn(int64(p)*pageSize+int64(s), ra, rb)
		}
	}
	m.state.countReads(visited)
	return true
}

func pageAt(pages []*rowPage, p int) *rowPage {
	if p < len(pages) {
		return pages[p]
	}
	return nil
}

// sameRow reports whether two slots hold the identical stored row. Rows
// are immutable once stored and every Insert stores a fresh
// slice (Schema.CheckRow), so identity implies equal content; two
// distinct slices with equal content count as changed, which costs the
// caller a redundant remove-and-add and is never wrong.
func sameRow(a, b Row) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if len(a) == 0 || len(b) == 0 {
		return len(a) == len(b)
	}
	return &a[0] == &b[0]
}
