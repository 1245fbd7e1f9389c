package relstore

import (
	"math/rand"
	"testing"
)

// benchIndexEntries is the size of the index both benchmarks run on.
const benchIndexEntries = 100_000

// benchIndexDB returns a database holding one table of
// benchIndexEntries rows (name STRING, obj INT, seq INT) under a
// non-unique B-tree index on all three columns, the shape of the
// catalog's value indexes: a random string value, then the instance
// (object, sequence) the index-only scans decode.
func benchIndexDB(b *testing.B) *Database {
	b.Helper()
	db := NewDatabase()
	_, err := db.CreateTable("vals",
		Column{Name: "name", Type: KString, NotNull: true},
		Column{Name: "obj", Type: KInt, NotNull: true},
		Column{Name: "seq", Type: KInt, NotNull: true})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := db.Table("vals").CreateIndex("by_name", false, "name", "obj", "seq"); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	tx := db.Begin()
	t := tx.Table("vals")
	for i := 0; i < benchIndexEntries; i++ {
		if _, err := t.Insert(benchRow(rng, int64(i))); err != nil {
			b.Fatal(err)
		}
	}
	tx.Commit()
	return db
}

// benchRow draws one row with a random 12-letter name.
func benchRow(rng *rand.Rand, obj int64) Row {
	name := make([]byte, 12)
	for i := range name {
		name[i] = 'a' + byte(rng.Intn(26))
	}
	return Row{Str(string(name)), Int(obj), Int(obj % 7)}
}

// BenchmarkIndexTxInsert builds one transaction's version: 50 rows with
// random keys inserted into the 100 000-entry index, each path-copying
// its way to a leaf. The transaction aborts, so every iteration builds
// on the same base; B/op and allocs/op are the version build's
// allocation.
func BenchmarkIndexTxInsert(b *testing.B) {
	db := benchIndexDB(b)
	rng := rand.New(rand.NewSource(2))
	rows := make([]Row, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := range rows {
			rows[j] = benchRow(rng, int64(benchIndexEntries+j))
		}
		b.StartTimer()
		tx := db.Begin()
		t := tx.Table("vals")
		for _, r := range rows {
			if _, err := t.Insert(r); err != nil {
				b.Fatal(err)
			}
		}
		tx.Abort()
	}
}

// benchTailsSink keeps the scan's result live.
var benchTailsSink int64

// BenchmarkLookupRangeTails scans the names starting with 'm' (about
// 1/26 of the 100 000-entry index), decoding each entry's (obj, seq)
// tail from its key: the index-only scan under the catalog's probes.
func BenchmarkLookupRangeTails(b *testing.B) {
	db := benchIndexDB(b)
	t := db.Table("vals")
	lo := RangeBound{Vals: []Value{Str("m")}, Inclusive: true, Set: true}
	hi := RangeBound{Vals: []Value{Str("n")}, Set: true}
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = 0
		err := t.LookupRangeTails("by_name", lo, hi, 2, func(tail []int64) bool {
			benchTailsSink += tail[0] + tail[1]
			n++
			return true
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	if n < benchIndexEntries/40 {
		b.Fatalf("scan visited %d entries", n)
	}
	b.ReportMetric(float64(n), "entries/op")
}
