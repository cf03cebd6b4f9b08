package table

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// randomRows generates n rows over attrs attributes with values 1..k.
func randomRows(rng *rand.Rand, n, attrs, k int) [][]Value {
	rows := make([][]Value, n)
	for i := range rows {
		row := make([]Value, attrs)
		for j := range row {
			row[j] = Value(1 + rng.Intn(k))
		}
		rows[i] = row
	}
	return rows
}

// indexEqual compares two indexes field by field, bit for bit.
func indexEqual(t *testing.T, got, want *Index) {
	t.Helper()
	if got.attrs != want.attrs || got.k != want.k || got.rows != want.rows || got.words != want.words {
		t.Fatalf("index shape: got (attrs=%d k=%d rows=%d words=%d), want (attrs=%d k=%d rows=%d words=%d)",
			got.attrs, got.k, got.rows, got.words, want.attrs, want.k, want.rows, want.words)
	}
	if !reflect.DeepEqual(got.bits, want.bits) {
		t.Fatal("index bits differ from rebuilt-from-scratch index")
	}
	if !reflect.DeepEqual(got.counts, want.counts) {
		t.Fatal("index counts differ from rebuilt-from-scratch index")
	}
}

// TestAppendRowsIndexEquivalence is the layer-1 differential test:
// across randomized append schedules, the copy-on-extend index must be
// bit-identical to one rebuilt from scratch on the appended table.
func TestAppendRowsIndexEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		attrs := 2 + rng.Intn(5)
		k := 1 + rng.Intn(6)
		names := make([]string, attrs)
		for j := range names {
			names[j] = string(rune('a' + j))
		}
		tb, err := FromRows(names, k, randomRows(rng, 1+rng.Intn(100), attrs, k))
		if err != nil {
			t.Fatal(err)
		}
		tb.Index() // seed the cache so appends extend it
		for step := 0; step < 4; step++ {
			batch := randomRows(rng, rng.Intn(40), attrs, k) // includes empty batches
			nt, err := tb.AppendRows(batch)
			if err != nil {
				t.Fatal(err)
			}
			got := nt.IndexIfBuilt()
			if got == nil {
				t.Fatal("AppendRows did not carry an extended index despite a fresh cache on the receiver")
			}
			indexEqual(t, got, buildIndex(nt))
			tb = nt
		}
	}
}

// TestAppendRowsLeavesReceiverUntouched pins the functional contract:
// the old table (rows, values, index) is unchanged by an append.
func TestAppendRowsLeavesReceiverUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tb, err := FromRows([]string{"x", "y", "z"}, 3, randomRows(rng, 50, 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	oldIdx := tb.Index()
	snapshot := tb.Clone()
	nt, err := tb.AppendRows(randomRows(rng, 7, 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 50 || nt.NumRows() != 57 {
		t.Fatalf("rows: old=%d new=%d, want 50/57", tb.NumRows(), nt.NumRows())
	}
	for j := 0; j < 3; j++ {
		if !reflect.DeepEqual(tb.Column(j), snapshot.Column(j)) {
			t.Fatalf("append mutated receiver column %d", j)
		}
	}
	if tb.IndexIfBuilt() != oldIdx {
		t.Fatal("append replaced the receiver's cached index")
	}
	if nt.IndexIfBuilt() == oldIdx {
		t.Fatal("new table shares the old index object")
	}
}

// TestAppendChainsShareSafely: tables made by appends share column
// storage, so every branch of an append history must still read
// exactly its own rows. From one parent it appends in a chain (the
// in-place path), branches off an older table (the copying path),
// appends concurrently to one table from several goroutines (one
// claims the shared rows, the rest copy; run under -race), calls
// AppendRow on a table that shares storage, and appends to a
// Column slice; each table must equal its rows recounted from
// scratch.
func TestAppendChainsShareSafely(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	attrs := []string{"x", "y", "z"}
	base := randomRows(rng, 40, 3, 3)
	t0, err := FromRows(attrs, 3, base)
	if err != nil {
		t.Fatal(err)
	}
	type version struct {
		tb   *Table
		rows [][]Value
	}
	var all []version
	add := func(parent version, rows [][]Value) version {
		t.Helper()
		nt, err := parent.tb.AppendRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		v := version{nt, append(append([][]Value(nil), parent.rows...), rows...)}
		all = append(all, v)
		return v
	}
	v0 := version{t0, base}
	all = append(all, v0)
	v1 := add(v0, randomRows(rng, 5, 3, 3))
	chain := v1
	for range 12 {
		chain = add(chain, randomRows(rng, 1+rng.Intn(4), 3, 3))
	}
	add(v1, randomRows(rng, 3, 3, 3))
	add(v1, randomRows(rng, 2, 3, 3))

	results := make([]version, 8)
	var wg sync.WaitGroup
	for g := range results {
		rows := randomRows(rng, 1+g%3, 3, 3)
		wg.Add(1)
		go func() {
			defer wg.Done()
			nt, err := chain.tb.AppendRows(rows)
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = version{nt, append(append([][]Value(nil), chain.rows...), rows...)}
		}()
	}
	wg.Wait()
	all = append(all, results...)

	// AppendRow grows v1 (all[1]) in place.
	if err := v1.tb.AppendRow([]Value{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	all[1].rows = append(append([][]Value(nil), v1.rows...), []Value{1, 2, 3})
	add(chain, randomRows(rng, 2, 3, 3))
	_ = append(chain.tb.Column(0), 3, 3, 3)

	for i, v := range all {
		want, err := FromRows(attrs, 3, v.rows)
		if err != nil {
			t.Fatal(err)
		}
		if v.tb.NumRows() != want.NumRows() {
			t.Fatalf("version %d: %d rows, want %d", i, v.tb.NumRows(), want.NumRows())
		}
		for j := range attrs {
			if !reflect.DeepEqual(v.tb.Column(j), want.Column(j)) {
				t.Fatalf("version %d column %d differs from its own rows", i, j)
			}
		}
	}
}

// TestAppendValidatesBeforeAllocating pins atomicity: a bad row yields
// an error and no new table.
func TestAppendValidatesBeforeAllocating(t *testing.T) {
	tb, err := FromRows([]string{"a", "b"}, 2, [][]Value{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.AppendRows([][]Value{{1, 2}, {1}}); err == nil {
		t.Fatal("short row accepted")
	}
	if _, err := tb.AppendRows([][]Value{{1, 2}, {1, 3}}); err == nil {
		t.Fatal("out-of-range value accepted")
	}
	if _, err := tb.AppendRows([][]Value{{1, 0}}); err == nil {
		t.Fatal("zero value accepted")
	}
	if tb.NumRows() != 1 {
		t.Fatalf("failed append changed the receiver: rows=%d", tb.NumRows())
	}
}

// TestIndexExtendsAfterAppendRow pins the in-place mutation path: an
// AppendRow after an index build must refresh via extendIndex and match
// a scratch rebuild bit for bit.
func TestIndexExtendsAfterAppendRow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tb, err := FromRows([]string{"a", "b", "c"}, 3, randomRows(rng, 70, 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	tb.Index()
	for i := 0; i < 5; i++ {
		if err := tb.AppendRow(randomRows(rng, 1, 3, 3)[0]); err != nil {
			t.Fatal(err)
		}
	}
	indexEqual(t, tb.Index(), buildIndex(tb))
}

// TestAppendEmptyBatch pins the no-op case: zero rows still yields a
// distinct, equal table.
func TestAppendEmptyBatch(t *testing.T) {
	tb, err := FromRows([]string{"a"}, 2, [][]Value{{1}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	nt, err := tb.AppendRows(nil)
	if err != nil {
		t.Fatal(err)
	}
	if nt == tb {
		t.Fatal("empty append returned the receiver")
	}
	if nt.NumRows() != tb.NumRows() {
		t.Fatalf("empty append changed rows: %d != %d", nt.NumRows(), tb.NumRows())
	}
}
