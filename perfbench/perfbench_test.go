package main

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"
)

func TestCheckerRejectsPlantedWrongAnswers(t *testing.T) {
	if err := selfTest(); err != nil {
		t.Fatal(err)
	}
}

// TestClosedLoopStopsOnWrongAnswer plants a wrong answer between the
// server and the client and requires the run to abort with errWrong.
func TestClosedLoopStopsOnWrongAnswer(t *testing.T) {
	ctx := context.Background()
	w := readWarm(1)
	vers := newVersions(w.g)
	lie := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			if r.URL.Path == "/v1/ask" && bytes.Contains(body, []byte(`"result":false`)) {
				body = bytes.Replace(body, []byte(`"result":false`), []byte(`"result":true`), 1)
			}
			for k, v := range rec.Header() {
				rw.Header()[k] = v
			}
			rw.WriteHeader(rec.Code)
			_, _ = rw.Write(body)
		})
	}
	s, _, err := setupServing(ctx, filepath.Join(t.TempDir(), "s"), w, vers, lie)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	_, err = closedLoop(ctx, s.base, w, nil, vers, 1, 5*time.Second, nil, nil)
	if !errors.Is(err, errWrong) {
		t.Fatalf("closed loop over a lying server returned %v, want a wrong-answer error", err)
	}
}

// TestChurnGenStationary: the non-spine edge count stays at its initial
// value or one below, and every second commit restores the initial graph.
func TestChurnGenStationary(t *testing.T) {
	g := newGraph(serveN, serveExtra)
	c := newChurnGen(g)
	for i := 0; i < 3*serveExtra; i++ {
		e, assert := c.next()
		if c.g.spineEdge(e) {
			t.Fatalf("commit %d toggles spine edge %v", i, e)
		}
		if assert != (i%2 == 1) {
			t.Fatalf("commit %d: assert=%v", i, assert)
		}
		if n := c.g.extra(); n != serveExtra-1+i%2 {
			t.Fatalf("commit %d: %d non-spine edges", i, n)
		}
		if i%2 == 1 && !equalGraphs(c.g, g) {
			t.Fatalf("commit %d did not restore the initial graph", i)
		}
	}
	// A refused commit is undone: the generator proposes it again.
	e, assert := c.next()
	c.undo(e, assert)
	if e2, assert2 := c.next(); e2 != e || assert2 != assert {
		t.Fatalf("after undo, next is %v/%v, want %v/%v", e2, assert2, e, assert)
	}
}

func equalGraphs(a, b *graph) bool {
	for i := range a.adj {
		if a.adj[i] != b.adj[i] {
			return false
		}
	}
	return true
}

// TestColdAnswersMixed: every cold kind gets both answers in two rounds,
// so the checker catches an engine that always answers one way.
func TestColdAnswersMixed(t *testing.T) {
	cs, err := newColdSet(newGraph(coldN, coldExtra), 7)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string][2]bool{}
	for _, o := range append(cs.round(0), cs.round(1)...) {
		s := seen[o.kind]
		if o.want {
			s[1] = true
		} else {
			s[0] = true
		}
		seen[o.kind] = s
	}
	for _, k := range []string{"demand", "search", "whatif"} {
		if seen[k] != [2]bool{true, true} {
			t.Errorf("%s ops of two rounds answer only %v", k, seen[k])
		}
	}
}

// TestColdWorkCountsRepeat is the deterministic gate: one cold round's
// work counts repeat exactly, across separately built inputs of a seed.
func TestColdWorkCountsRepeat(t *testing.T) {
	var got []workCounts
	for i := 0; i < 2; i++ {
		cs, err := newColdSet(newGraph(coldN, coldExtra), 7)
		if err != nil {
			t.Fatal(err)
		}
		c, _, err := countRound(cs)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, c)
	}
	if got[0] != got[1] {
		t.Fatalf("work counts differ: %+v vs %+v", got[0], got[1])
	}
	if got[0].DeltaMaterialisations == 0 || got[0].SigmaGoals == 0 {
		t.Fatalf("a cold round counted no work: %+v", got[0])
	}
}
