package hypo

import (
	"errors"
	"sort"
	"strings"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/cache"
	"hypodatalog/internal/symbols"
	"hypodatalog/internal/topdown"
)

// CacheStatus reports how a pool read was served when the versioned
// answer cache (Options.CacheBytes) is enabled.
type CacheStatus int

const (
	// CacheBypass: no cache is configured for this pool, or the read
	// (Explain) never consults it.
	CacheBypass CacheStatus = iota
	// CacheMiss: this call ran the evaluation (and stored the answer).
	CacheMiss
	// CacheHit: the answer was served from a stored entry; no engine was
	// leased and no evaluation ran.
	CacheHit
	// CacheCoalesced: an identical query was already evaluating; this
	// call waited for it and shares its answer — N concurrent identical
	// misses cost one engine lease.
	CacheCoalesced
)

func (s CacheStatus) String() string {
	switch s {
	case CacheMiss:
		return "miss"
	case CacheHit:
		return "hit"
	case CacheCoalesced:
		return "coalesced"
	default:
		return "bypass"
	}
}

// ReadInfo describes how one pool read was served: the data version the
// answer is valid at, how the cache was involved, and the evaluation
// work this particular call performed (zero when the answer came from
// the cache or from another caller's coalesced evaluation).
type ReadInfo struct {
	DataVersion uint64
	Cache       CacheStatus
	Stats       Stats
}

// cachedAnswer is the value stored in the answer cache: a ground result
// or a materialised binding set, stamped with the data version it was
// computed at. An entry's version always equals its key's version —
// answers computed at a version other than the one the key was built
// from are returned to callers but never stored (see Computed.Store).
type cachedAnswer struct {
	ok       bool
	bindings []Binding
	version  uint64

	// preds are the predicates the answer depends on from the outside: the
	// query's root predicate plus any hypothetically added/deleted ones.
	// On a commit the pool carries the entry forward to the new version
	// when none of them fall inside the commit's affected cone — the
	// answer is then version-stable by construction. nil means "unknown;
	// never carry".
	preds []symbols.Pred
}

// premisePreds collects the predicates a compiled premise reads at the
// root: the queried atom's predicate plus every hypothetical add/del,
// and any extra atoms (AskUnder's outer adds). Reverse-closed cones make
// this sufficient for carry-forward: if none of these predicates are in
// a commit's cone, no changed predicate is reachable from the query.
func premisePreds(cpr ast.CPremise, extra []ast.CAtom) []symbols.Pred {
	seen := make(map[symbols.Pred]bool, 1+len(cpr.Adds)+len(cpr.Dels)+len(extra))
	out := make([]symbols.Pred, 0, 1+len(cpr.Adds)+len(cpr.Dels)+len(extra))
	add := func(p symbols.Pred) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	add(cpr.Atom.Pred)
	for _, a := range cpr.Adds {
		add(a.Pred)
	}
	for _, a := range cpr.Dels {
		add(a.Pred)
	}
	for _, a := range extra {
		add(a.Pred)
	}
	return out
}

// demandKeyPrefix namespaces answer-cache keys produced under
// demand-driven evaluation. Demand answers equal full answers by
// construction, but the modes memoise through different machinery, so
// keeping their cache entries disjoint means a defect in one mode can
// never serve a wrong answer through the other's key.
const demandKeyPrefix = "d\x1f"

// ckey namespaces an answer-cache key by the pool's evaluation mode.
func (pl *Pool) ckey(k string) string {
	if pl.opts.DemandDriven {
		return demandKeyPrefix + k
	}
	return k
}

// cacheKey canonicalises a read's answer-cache key: the operation kind,
// the parsed premise rendered back to surface syntax (so formatting
// differences collapse), and — for AskUnder — the sorted added atoms.
// Ask and AskUnder keep distinct prefixes even when semantically
// equivalent; the cache trades a little duplication for keys that are
// trivially correct.
func cacheKey(kind readKind, pr ast.Premise, adds []ast.Atom) string {
	if kind != readAskUnder {
		return string(kind) + "\x1f" + pr.String()
	}
	ss := make([]string, len(adds))
	for i, a := range adds {
		ss[i] = a.String()
	}
	sort.Strings(ss)
	return "u\x1f" + pr.String() + "\x1f" + strings.Join(ss, "\x1f")
}

// boolAnswerBytes is the charged size of a cached ground answer.
const boolAnswerBytes = 16

// bindingsBytes estimates the heap footprint of a materialised binding
// set for the cache's byte budget.
func bindingsBytes(bs []Binding) int64 {
	n := int64(24)
	for _, b := range bs {
		n += 48
		for k, v := range b {
			n += int64(len(k)+len(v)) + 32
		}
	}
	return n
}

// wrapCacheWait converts a cache.WaitError — the caller's context ended
// while it was waiting on another caller's in-flight evaluation — into
// the same *AbortError(ErrCanceled/ErrDeadline) shape every other
// ctx-bounded wait in the package reports. Other errors pass through.
func wrapCacheWait(err error) error {
	var we *cache.WaitError
	if errors.As(err, &we) {
		return topdown.ContextAbort(we.Err, topdown.Stats{})
	}
	return err
}
