package analysis

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pdce/internal/bitvec"
	"pdce/internal/cfg"
	"pdce/internal/ir"
	"pdce/internal/progen"
)

// TestIncrementalSolversMatchFresh is the analysis-layer differential
// test of the incremental solvers. On generated programs of four shapes
// it applies a random sequence of block edits; after each edit the
// long-lived DelaySolver and DeadSolver re-solve from the dirty set and
// must agree with freshly built solvers over the same universes: equal
// local predicates, In/Out vectors, insertion predicates and
// elimination sets. A dead-variable block the solver lets the
// elimination walk skip must be unedited with an unchanged solution.
// A failure names the analysis that diverged.
func TestIncrementalSolversMatchFresh(t *testing.T) {
	shapes := []struct {
		name string
		p    progen.Params
	}{
		{"structured", progen.Params{Stmts: 80}},
		{"loop-heavy", progen.Params{Stmts: 80, LoopProb: 0.3, BranchProb: 0.2}},
		{"irreducible", progen.Params{Stmts: 80, Irreducible: true}},
		{"dense-vars", progen.Params{Stmts: 80, Vars: 4}},
	}
	for _, sh := range shapes {
		for seed := int64(0); seed < 5; seed++ {
			p := sh.p
			p.Seed = seed
			g := progen.Generate(p)
			cfg.SplitCriticalEdges(g)
			tag := fmt.Sprintf("%s seed=%d", sh.name, seed)
			differentialRun(t, tag, g, rand.New(rand.NewSource(seed+100)))
		}
	}
}

func differentialRun(t *testing.T, tag string, g *cfg.Graph, rng *rand.Rand) {
	t.Helper()
	// The universes are fixed at creation; edits only draw from the
	// program's own assignments, so they stay covered.
	pt := g.CollectPatterns()
	vars := g.CollectVars()
	var pool []ir.Stmt
	for _, n := range g.Nodes() {
		for _, s := range n.Stmts {
			if _, ok := s.(ir.Assign); ok {
				pool = append(pool, s)
			}
		}
	}
	if len(pool) == 0 {
		t.Fatalf("%s: program has no assignments", tag)
	}

	delay := NewDelaySolver(g, pt)
	dead := NewDeadSolver(g, vars)
	delay.Solve(nil)
	prev := snapshotDead(dead.Solve(nil))

	nodes := g.Nodes()
	for step := 0; step < 15; step++ {
		var dirty []cfg.NodeID
		for k := 1 + rng.Intn(3); k > 0; k-- {
			n := nodes[rng.Intn(len(nodes))]
			editBlock(n, pool, rng)
			dirty = append(dirty, n.ID)
		}
		at := fmt.Sprintf("%s step=%d", tag, step)

		checkDelay(t, at, g, delay.Solve(dirty), NewDelaySolver(g, pt).Solve(nil))

		got := dead.Solve(dirty)
		checkDead(t, at, g, got, NewDeadSolver(g, vars).Solve(nil))
		for _, n := range nodes {
			if got.NeedsScan(n.ID) {
				continue
			}
			if slices.Contains(dirty, n.ID) {
				t.Fatalf("dead %s: edited block %s excluded from the elimination scan", at, n.Label)
			}
			if !got.NDead[n.ID].Equal(prev.NDead[n.ID]) || !got.XDead[n.ID].Equal(prev.XDead[n.ID]) {
				t.Fatalf("dead %s: block %s excluded from the elimination scan but its solution moved", at, n.Label)
			}
		}
		prev = snapshotDead(got)
	}
}

// editBlock rewrites n into a fresh statement slice (the solvers'
// per-block caches key on the slice header): it deletes, inserts or
// replaces one assignment, or re-issues the same statements unchanged,
// which the solvers must recognize as no equation change.
func editBlock(n *cfg.Node, pool []ir.Stmt, rng *rand.Rand) {
	stmts := slices.Clone(n.Stmts)
	// Assignments may go anywhere before a trailing branch condition.
	limit := len(stmts)
	if limit > 0 {
		if _, ok := stmts[limit-1].(ir.Branch); ok {
			limit--
		}
	}
	var assigns []int
	for i, s := range stmts[:limit] {
		if _, ok := s.(ir.Assign); ok {
			assigns = append(assigns, i)
		}
	}
	pick := pool[rng.Intn(len(pool))]
	switch op := rng.Intn(4); {
	case op == 0 && len(assigns) > 0:
		i := assigns[rng.Intn(len(assigns))]
		stmts = slices.Delete(stmts, i, i+1)
	case op == 1 && len(assigns) > 0:
		stmts[assigns[rng.Intn(len(assigns))]] = pick
	case op == 2:
		stmts = slices.Insert(stmts, rng.Intn(limit+1), pick)
	}
	n.Stmts = stmts
}

type deadSnapshot struct{ NDead, XDead []*bitvec.Vector }

// snapshotDead copies a result that aliases solver storage.
func snapshotDead(r *DeadResult) deadSnapshot {
	cp := func(vs []*bitvec.Vector) []*bitvec.Vector {
		out := make([]*bitvec.Vector, len(vs))
		for i, v := range vs {
			if v != nil {
				out[i] = v.Copy()
			}
		}
		return out
	}
	return deadSnapshot{cp(r.NDead), cp(r.XDead)}
}

func checkDelay(t *testing.T, at string, g *cfg.Graph, got, want *DelayResult) {
	t.Helper()
	for _, n := range g.Nodes() {
		id := n.ID
		for _, c := range []struct {
			name      string
			got, want *bitvec.Vector
		}{
			{"LOCDELAYED", got.Locals.LocDelayed[id], want.Locals.LocDelayed[id]},
			{"LOCBLOCKED", got.Locals.LocBlocked[id], want.Locals.LocBlocked[id]},
			{"N-DELAYED", got.NDelayed[id], want.NDelayed[id]},
			{"X-DELAYED", got.XDelayed[id], want.XDelayed[id]},
			{"N-INSERT", got.NInsert[id], want.NInsert[id]},
			{"X-INSERT", got.XInsert[id], want.XInsert[id]},
		} {
			if !c.got.Equal(c.want) {
				t.Fatalf("delay %s: %s(%s) = %s, fresh solver %s", at, c.name, n.Label, c.got, c.want)
			}
		}
	}
}

func checkDead(t *testing.T, at string, g *cfg.Graph, got, want *DeadResult) {
	t.Helper()
	for _, n := range g.Nodes() {
		id := n.ID
		if !got.NDead[id].Equal(want.NDead[id]) {
			t.Fatalf("dead %s: N-DEAD(%s) = %s, fresh solver %s", at, n.Label, got.NDead[id], want.NDead[id])
		}
		if !got.XDead[id].Equal(want.XDead[id]) {
			t.Fatalf("dead %s: X-DEAD(%s) = %s, fresh solver %s", at, n.Label, got.XDead[id], want.XDead[id])
		}
		if gi, wi := got.DeadAssignIndices(n, nil), want.DeadAssignIndices(n, nil); !slices.Equal(gi, wi) {
			t.Fatalf("dead %s: elimination set of %s = %v, fresh solver %v", at, n.Label, gi, wi)
		}
	}
}
