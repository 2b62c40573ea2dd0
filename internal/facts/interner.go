// Package facts provides the ground-level data plane of the system: a
// ground-atom interner assigning dense ids, an indexed base database, and
// the immutable Delta overlays that represent hypothetical states
// DB + {B1, ..., Bm} during inference.
package facts

import (
	"slices"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/symbols"
)

// AtomID is a dense identifier for an interned ground atom.
type AtomID int32

// NoAtom is returned by lookups that find nothing.
const NoAtom AtomID = -1

type groundAtom struct {
	pred symbols.Pred
	hash uint32 // atomHash of (pred, args), kept for probing and growth
	args []symbols.Const
}

// Interner assigns dense ids to ground atoms. It is shared by a base
// database and all hypothetical states layered on top of it.
// The zero value is not usable; call NewInterner.
//
// The index is an open-addressed hash table of ids with linear probing:
// a slot holds id+1 of an interned atom, 0 when empty, and an atom sits
// in the first free slot at or after its hash's home slot. A probe
// compares the stored hash, then the predicate and arguments of
// atoms[id], so no key is encoded and a lookup writes nothing.
type Interner struct {
	syms  *symbols.Table
	atoms []groundAtom
	table []AtomID        // len a power of two, at most half full
	arena []symbols.Const // argument storage; atoms' args are windows of it
	bytes int64           // approximate heap footprint of atoms + index
}

// internEntryOverhead approximates the fixed heap cost of one interned
// atom beyond its key and argument bytes (see ID): the groundAtom
// record, its table slots, and allocator slack. The accounting is a budget
// estimator, not a profiler — it only needs to grow linearly with real
// memory so a byte ceiling translates to a bounded RSS.
const internEntryOverhead = 64

// minTable is the table size of a new interner; arenaChunk the number
// of argument constants allocated at once for new atoms.
const (
	minTable   = 64
	arenaChunk = 1024
)

// NewInterner returns an empty interner over the given symbol table.
func NewInterner(syms *symbols.Table) *Interner {
	return &Interner{syms: syms, table: make([]AtomID, minTable)}
}

// Syms returns the symbol table the interner was built over.
func (in *Interner) Syms() *symbols.Table { return in.syms }

// atomHash mixes the predicate and argument ids into 32 bits: one
// multiply-xorshift step per word and a murmur3 finaliser, so that
// atoms differing in one argument land in unrelated slots.
func atomHash(pred symbols.Pred, args []symbols.Const) uint32 {
	h := uint64(uint32(pred)) * 0x9e3779b97f4a7c15
	for _, a := range args {
		h = (h ^ uint64(uint32(a))) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return uint32(h)
}

// find returns the table slot holding pred(args...), or the empty slot
// where it would be inserted.
func (in *Interner) find(h uint32, pred symbols.Pred, args []symbols.Const) int {
	mask := len(in.table) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		v := in.table[i]
		if v == 0 {
			return i
		}
		if a := &in.atoms[v-1]; a.hash == h && a.pred == pred && slices.Equal(a.args, args) {
			return i
		}
	}
}

// ID interns the ground atom pred(args...) and returns its id. The args
// slice is copied on first interning, so callers may pass scratch.
func (in *Interner) ID(pred symbols.Pred, args []symbols.Const) AtomID {
	h := atomHash(pred, args)
	i := in.find(h, pred, args)
	if v := in.table[i]; v != 0 {
		return v - 1
	}
	id := AtomID(len(in.atoms))
	in.atoms = append(in.atoms, groundAtom{pred: pred, hash: h, args: in.store(args)})
	in.table[i] = id + 1
	if 2*len(in.atoms) > len(in.table) {
		in.grow()
	}
	// The charge of the byte-keyed map this table replaced: a 4·(1+k)
	// byte key, the arguments, the overhead. Keeping it keeps every
	// memory budget where it was.
	in.bytes += 4*int64(1+len(args)) + 8*int64(len(args)) + internEntryOverhead
	return id
}

// store copies args into the arena and returns the capacity-clipped
// copy, nil for none.
func (in *Interner) store(args []symbols.Const) []symbols.Const {
	if len(args) == 0 {
		return nil
	}
	if cap(in.arena)-len(in.arena) < len(args) {
		in.arena = make([]symbols.Const, 0, max(arenaChunk, len(args)))
	}
	n := len(in.arena)
	in.arena = append(in.arena, args...)
	return in.arena[n:len(in.arena):len(in.arena)]
}

// grow doubles the table and reinserts every atom by its stored hash.
func (in *Interner) grow() {
	in.table = make([]AtomID, 2*len(in.table))
	mask := len(in.table) - 1
	for id := range in.atoms {
		i := int(in.atoms[id].hash) & mask
		for in.table[i] != 0 {
			i = (i + 1) & mask
		}
		in.table[i] = AtomID(id) + 1
	}
}

// MemBytes returns the interner's approximate heap footprint. Atoms are
// never un-interned, so the value is monotone within one interner (but
// resets to the substrate's footprint on Clone).
func (in *Interner) MemBytes() int64 { return in.bytes }

// Lookup returns the id of pred(args...) if it has been interned. It
// writes nothing, so concurrent Lookups on an interner nobody interns
// into are safe.
func (in *Interner) Lookup(pred symbols.Pred, args []symbols.Const) (AtomID, bool) {
	v := in.table[in.find(atomHash(pred, args), pred, args)]
	return v - 1, v != 0
}

// Pred returns the predicate of an interned atom.
func (in *Interner) Pred(id AtomID) symbols.Pred { return in.atoms[id].pred }

// Args returns the argument constants of an interned atom. The returned
// slice must not be modified.
func (in *Interner) Args(id AtomID) []symbols.Const { return in.atoms[id].args }

// Len reports how many atoms have been interned.
func (in *Interner) Len() int { return len(in.atoms) }

// Clone returns an independent interner with the same atom/id assignment.
// The per-atom argument slices are shared (they are immutable after
// interning); the atoms slice and the table are copied, and the copy
// starts a fresh arena, so interning into either copy never affects the
// other.
func (in *Interner) Clone() *Interner {
	return &Interner{
		syms:  in.syms,
		atoms: append([]groundAtom(nil), in.atoms...),
		table: append([]AtomID(nil), in.table...),
		bytes: in.bytes,
	}
}

// InternGround interns a ground compiled atom. It panics if the atom
// contains variables (callers ground atoms before interning).
func (in *Interner) InternGround(a ast.CAtom) AtomID {
	var buf [GroundBuf]symbols.Const
	args := buf[:0]
	for _, t := range a.Args {
		args = append(args, t.ConstID())
	}
	return in.ID(a.Pred, args)
}

// GroundBuf is the arity up to which grounding loops build an atom's
// arguments in a stack array; wider atoms fall back to the heap.
const GroundBuf = 8

// Format renders an interned atom using the symbol table.
func (in *Interner) Format(id AtomID) string {
	g := in.atoms[id]
	if len(g.args) == 0 {
		return in.syms.PredName(g.pred)
	}
	s := in.syms.PredName(g.pred) + "("
	for i, a := range g.args {
		if i > 0 {
			s += ", "
		}
		s += in.syms.ConstName(a)
	}
	return s + ")"
}
