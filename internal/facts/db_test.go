package facts

import (
	"math/rand"
	"slices"
	"testing"

	"hypodatalog/internal/symbols"
)

// internEdges interns n distinct edge/2 atoms, ids 0..n-1.
func internEdges(t *testing.T, in *Interner, syms *symbols.Table, n int) []AtomID {
	t.Helper()
	edge := syms.Pred("edge", 2)
	consts := make([]symbols.Const, 32)
	for i := range consts {
		consts[i] = syms.Const(string(rune('A' + i)))
	}
	ids := make([]AtomID, n)
	for k := range ids {
		ids[k] = in.ID(edge, []symbols.Const{consts[k%32], consts[k/32]})
		if ids[k] != AtomID(k) {
			t.Fatalf("atom %d interned as %d", k, ids[k])
		}
	}
	return ids
}

// checkAgainst compares every read of db with the oracle set.
func checkAgainst(t *testing.T, db *DB, oracle map[AtomID]bool, n int) {
	t.Helper()
	var want []AtomID
	for id := AtomID(0); id < AtomID(n); id++ {
		if db.Has(id) != oracle[id] {
			t.Fatalf("Has(%d) = %v, want %v", id, db.Has(id), oracle[id])
		}
		if oracle[id] {
			want = append(want, id)
		}
	}
	if db.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", db.Len(), len(want))
	}
	if got := db.All(); !slices.Equal(got, want) {
		t.Fatalf("All = %v, want %v", got, want)
	}
}

// TestDBBitsetMatchesMap drives random Insert/Remove sequences over ids
// spanning several bitset words and checks Has, Len and All against a
// map after every step.
func TestDBBitsetMatchesMap(t *testing.T) {
	const n = 300
	for seed := int64(1); seed <= 5; seed++ {
		in, db, syms := newTestDB()
		ids := internEdges(t, in, syms, n)
		oracle := map[AtomID]bool{}
		rng := rand.New(rand.NewSource(seed))
		for step := 0; step < 2000; step++ {
			id := ids[rng.Intn(n)]
			if rng.Intn(3) == 0 {
				if got := db.Remove(id); got != oracle[id] {
					t.Fatalf("seed %d: Remove(%d) = %v, want %v", seed, id, got, oracle[id])
				}
				delete(oracle, id)
			} else {
				got, err := db.Insert(id)
				if err != nil || got == oracle[id] {
					t.Fatalf("seed %d: Insert(%d) = %v, %v; present %v", seed, id, got, err, oracle[id])
				}
				oracle[id] = true
			}
			if step%50 == 0 {
				checkAgainst(t, db, oracle, n)
			}
		}
		checkAgainst(t, db, oracle, n)
	}
}

// TestDBHasPastLastWord checks that ids beyond the bitset's last word,
// and NoAtom, read as absent rather than indexing out of range.
func TestDBHasPastLastWord(t *testing.T) {
	in, db, syms := newTestDB()
	ids := internEdges(t, in, syms, 70)
	if _, err := db.Insert(ids[3]); err != nil {
		t.Fatal(err)
	}
	for _, id := range []AtomID{NoAtom, 4, 63, 64, 69, 1 << 20} {
		if db.Has(id) {
			t.Errorf("Has(%d) on a one-word bitset", id)
		}
	}
	if !db.Has(ids[3]) {
		t.Error("Has lost the inserted atom")
	}
	if db.Remove(ids[69]) {
		t.Error("Remove past the last word reported a removal")
	}
}

// TestDBCloneForIndependent checks that a CloneFor copy and its source
// never observe each other's inserts and removes.
func TestDBCloneForIndependent(t *testing.T) {
	in, db, syms := newTestDB()
	ids := internEdges(t, in, syms, 200)
	src := map[AtomID]bool{}
	for _, id := range ids[:100] {
		db.Insert(id)
		src[id] = true
	}
	clone := db.CloneFor(in.Clone())
	dst := map[AtomID]bool{}
	for id := range src {
		dst[id] = true
	}
	// Each side removes and inserts atoms the other keeps or lacks, in
	// words the other has and in words past its end.
	for _, id := range []AtomID{ids[0], ids[64], ids[99]} {
		clone.Remove(id)
		delete(dst, id)
	}
	for _, id := range []AtomID{ids[100], ids[150], ids[199]} {
		clone.Insert(id)
		dst[id] = true
	}
	for _, id := range []AtomID{ids[1], ids[70]} {
		db.Remove(id)
		delete(src, id)
	}
	for _, id := range []AtomID{ids[101], ids[180]} {
		db.Insert(id)
		src[id] = true
	}
	checkAgainst(t, db, src, len(ids))
	checkAgainst(t, clone, dst, len(ids))
}
