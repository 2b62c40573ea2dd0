package facts

import (
	"fmt"
	"testing"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/symbols"
)

// internerCopy is one interner under test with its map oracle: the id
// each atom must have, keyed by its text, and the atoms in id order.
type internerCopy struct {
	in    *Interner
	ids   map[string]AtomID
	atoms []string
}

func (c *internerCopy) clone() *internerCopy {
	out := &internerCopy{in: c.in.Clone(), ids: make(map[string]AtomID, len(c.ids)), atoms: append([]string(nil), c.atoms...)}
	for k, v := range c.ids {
		out.ids[k] = v
	}
	return out
}

// fuzzBytes hands out the fuzz input a byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// FuzzInterner drives random sequences of ID, InternGround, Lookup and
// Clone over predicates of arity 0-9 (wider than the grounding stack
// buffer) and checks every copy against a map oracle: ids are dense in
// first-intern order and stable, Lookup never interns, clones are
// independent in both directions, and the table survives growth (a bulk
// op interns enough atoms to resize it).
func FuzzInterner(f *testing.F) {
	f.Add([]byte{0, 2, 1, 2, 3, 1, 2, 1, 2, 3})
	f.Add([]byte{4, 0, 2, 0, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 5, 1, 0, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{4, 7, 2, 4, 9, 4, 3, 3, 0, 1, 0, 0, 0})
	f.Add([]byte{0, 3, 0, 1, 1, 2, 2, 6, 15, 1, 3, 0, 2, 15, 15, 2, 3, 1, 1, 0, 1, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		syms := symbols.NewTable()
		consts := make([]symbols.Const, 16)
		for i := range consts {
			consts[i] = syms.Const(fmt.Sprintf("c%d", i))
		}
		copies := []*internerCopy{{in: NewInterner(syms), ids: map[string]AtomID{}}}
		in := fuzzBytes(data)
		// atom reads a predicate and its arguments from the input.
		atom := func() (symbols.Pred, []symbols.Const, string) {
			arity := in.next() % 10
			pred := syms.Pred(fmt.Sprintf("p%d", in.next()%3), arity)
			args := make([]symbols.Const, arity)
			for i := range args {
				args[i] = consts[in.next()%len(consts)]
			}
			return pred, args, fmt.Sprint(pred, args)
		}
		intern := func(c *internerCopy, pred symbols.Pred, args []symbols.Const, key string, viaGround bool) {
			var got AtomID
			if viaGround {
				ca := ast.CAtom{Pred: pred, Args: make([]ast.CTerm, len(args))}
				for i, a := range args {
					ca.Args[i] = ast.CConst(a)
				}
				got = c.in.InternGround(ca)
			} else {
				got = c.in.ID(pred, args)
			}
			want, ok := c.ids[key]
			if !ok {
				want = AtomID(len(c.atoms))
				c.ids[key] = want
				c.atoms = append(c.atoms, key)
			}
			if got != want {
				t.Fatalf("%s interned as %d, want %d", key, got, want)
			}
		}
		for len(in) > 0 {
			c := copies[in.next()%len(copies)]
			switch in.next() % 5 {
			case 0, 1:
				pred, args, key := atom()
				intern(c, pred, args, key, len(in)%2 == 0)
			case 2:
				pred, args, key := atom()
				n := c.in.Len()
				id, ok := c.in.Lookup(pred, args)
				want, known := c.ids[key]
				if ok != known || (ok && id != want) {
					t.Fatalf("Lookup(%s) = %d, %v; want %d, %v", key, id, ok, want, known)
				}
				if c.in.Len() != n {
					t.Fatalf("Lookup(%s) interned: Len %d -> %d", key, n, c.in.Len())
				}
			case 3:
				if len(copies) < 4 {
					copies = append(copies, c.clone())
				}
			case 4:
				// Bulk: enough binary atoms to grow a fresh table.
				pred := syms.Pred("bulk", 2)
				from := in.next()
				for k := from; k < from+2*minTable; k++ {
					args := []symbols.Const{consts[k%16], consts[(k/16)%16]}
					intern(c, pred, args, fmt.Sprint(pred, args), false)
				}
			}
		}
		for i, c := range copies {
			if c.in.Len() != len(c.atoms) {
				t.Fatalf("copy %d: Len = %d, want %d", i, c.in.Len(), len(c.atoms))
			}
			for id, key := range c.atoms {
				got := fmt.Sprint(c.in.Pred(AtomID(id)), c.in.Args(AtomID(id)))
				if got != key {
					t.Fatalf("copy %d: atom %d is %s, want %s", i, id, got, key)
				}
				if lid, ok := c.in.Lookup(c.in.Pred(AtomID(id)), c.in.Args(AtomID(id))); !ok || lid != AtomID(id) {
					t.Fatalf("copy %d: Lookup(%s) = %d, %v", i, key, lid, ok)
				}
			}
		}
	})
}
