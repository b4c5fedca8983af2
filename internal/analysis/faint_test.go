package analysis

import (
	"fmt"
	"math/rand"
	"testing"

	"pdce/internal/cfg"
	"pdce/internal/parser"
	"pdce/internal/progen"
)

// requireFaintMatchesBlockwise checks r against the blockwise oracle on
// g: N-FAINT at every block entry, X-FAINT at every block exit, and
// X-FAINT after every statement for every variable.
func requireFaintMatchesBlockwise(t *testing.T, tag string, g *cfg.Graph, r *FaintResult) {
	t.Helper()
	block := FaintVarsBlockwise(g)
	if r.Vars.Len() != block.Vars.Len() {
		t.Fatalf("%s: universe of %d vars, oracle %d", tag, r.Vars.Len(), block.Vars.Len())
	}
	for _, n := range g.Nodes() {
		if !r.EntryFaint(n).Equal(block.NFaint[n.ID]) {
			t.Fatalf("%s node %s: entry faint differs: slot=%s block=%s\n%s",
				tag, n.Label, r.EntryFaint(n), block.NFaint[n.ID], g)
		}
		if !r.ExitFaint(n).Equal(block.XFaint[n.ID]) {
			t.Fatalf("%s node %s: exit faint differs: slot=%s block=%s",
				tag, n.Label, r.ExitFaint(n), block.XFaint[n.ID])
		}
		ix := block.InstrXFaint(n)
		for si := range n.Stmts {
			for vi := 0; vi < r.Vars.Len(); vi++ {
				v := r.Vars.Var(vi)
				if r.FaintAfter(n, si, v) != ix[si].Get(vi) {
					t.Fatalf("%s node %s stmt %d var %s: instruction-level faint differs",
						tag, n.Label, si, v)
				}
			}
		}
	}
}

// requireSameFaint checks that got and want agree at every block entry
// and exit and after every statement of g.
func requireSameFaint(t *testing.T, tag string, g *cfg.Graph, got, want *FaintResult) {
	t.Helper()
	if got.Cancelled || want.Cancelled {
		t.Fatalf("%s: cancelled result (got %v, want %v)", tag, got.Cancelled, want.Cancelled)
	}
	for _, n := range g.Nodes() {
		if !got.EntryFaint(n).Equal(want.EntryFaint(n)) || !got.ExitFaint(n).Equal(want.ExitFaint(n)) {
			t.Fatalf("%s node %s: block faint vectors differ from a fresh solve", tag, n.Label)
		}
		for si := range n.Stmts {
			for vi := 0; vi < want.Vars.Len(); vi++ {
				v := want.Vars.Var(vi)
				if got.FaintAfter(n, si, v) != want.FaintAfter(n, si, v) {
					t.Fatalf("%s node %s stmt %d var %s: differs from a fresh solve", tag, n.Label, si, v)
				}
			}
		}
	}
	if got.SlotUpdates != want.SlotUpdates {
		t.Fatalf("%s: %d slot updates, fresh solve %d", tag, got.SlotUpdates, want.SlotUpdates)
	}
}

// TestFaintWideUniverses cross-checks the slotwise solver against the
// blockwise oracle on universes wider than one and two 64-bit words, so
// every slot of a multi-word stride is read and written.
func TestFaintWideUniverses(t *testing.T) {
	for _, vars := range []int{70, 130} {
		for seed := int64(0); seed < 8; seed++ {
			p := progen.Params{Seed: seed, Stmts: 600, Vars: vars, LoopProb: 0.15, BranchProb: 0.25}
			if seed%2 == 1 {
				p.Irreducible = true
			}
			g := progen.Generate(p)
			tag := fmt.Sprintf("vars=%d seed=%d", vars, seed)
			if n := g.CollectVars().Len(); n <= 64*(vars/64) {
				t.Fatalf("%s: only %d variables in use; the test needs more than %d", tag, n, 64*(vars/64))
			}
			requireFaintMatchesBlockwise(t, tag, g, FaintVars(g))
		}
	}
}

// TestFaintEmptyBlocksAndSelfLoops covers the two block shapes the flat
// numbering special-cases: an empty block contributes one implicit skip
// that is both its entry and its exit, and a self-loop makes a block's
// exit one of its own entry's predecessors.
func TestFaintEmptyBlocksAndSelfLoops(t *testing.T) {
	g := parser.MustParseCFG(`
node 1 {}
node 2 { x := x+1 }
node 3 {}
node 4 { y := y+z; out(a) }
node 5 {}
edge s 1
edge 1 2
edge 2 2
edge 2 3
edge 3 3
edge 3 4
edge 4 4
edge 4 5
edge 5 e
`)
	requireFaintMatchesBlockwise(t, "hand-written", g, FaintVars(g))

	for seed := int64(0); seed < 20; seed++ {
		p := progen.Params{Seed: seed, Stmts: 120, Vars: 6 + int(seed)*4, LoopProb: 0.2, BranchProb: 0.25}
		if seed%3 == 0 {
			p.Irreducible = true
		}
		g := progen.Generate(p)
		rng := rand.New(rand.NewSource(seed))
		var inner []*cfg.Node
		for _, n := range g.Nodes() {
			if n != g.Start && n != g.End {
				inner = append(inner, n)
			}
		}
		// Empty blocks on random edges, then self-loops on random
		// blocks, some of them the new empty ones.
		for k := 0; k < 6; k++ {
			a := inner[rng.Intn(len(inner))]
			if len(a.Succs()) == 0 {
				continue
			}
			b := a.Succs()[rng.Intn(len(a.Succs()))]
			mid := g.AddNode(fmt.Sprintf("empty%d", k))
			g.SplitEdgeWith(a, b, mid)
			inner = append(inner, mid)
		}
		for k := 0; k < 6; k++ {
			n := inner[rng.Intn(len(inner))]
			if !g.HasEdge(n, n) {
				g.AddEdge(n, n)
			}
		}
		requireFaintMatchesBlockwise(t, fmt.Sprintf("seed=%d", seed), g, FaintVars(g))
	}
}

// TestFaintSolverReuse runs one FaintSolver over a shuffled sequence of
// programs whose sizes and variable counts grow and shrink, cancelling
// one solve midway. Every solve after that must equal a fresh solve, so
// no state from a larger, smaller or interrupted solve leaks into the
// next one.
func TestFaintSolverReuse(t *testing.T) {
	var gs []*cfg.Graph
	for i, stmts := range []int{30, 400, 80, 1200, 10, 600} {
		for j, vars := range []int{3, 40, 130} {
			gs = append(gs, progen.Generate(progen.Params{
				Seed: int64(10*i + j), Stmts: stmts, Vars: vars,
				Irreducible: (i+j)%2 == 1,
			}))
		}
	}
	rand.New(rand.NewSource(7)).Shuffle(len(gs), func(i, j int) { gs[i], gs[j] = gs[j], gs[i] })

	var s FaintSolver
	cancelled := false
	for k, g := range gs {
		vars := g.CollectVars()
		tag := fmt.Sprintf("solve %d (%d stmts, %d vars)", k, g.NumStmts(), vars.Len())
		if !cancelled && g.NumStmts() >= 600 {
			calls := 0
			r := s.Solve(g, vars, func() bool { calls++; return calls == 3 }, nil)
			if !r.Cancelled {
				t.Fatalf("%s: solve not cancelled after %d checks", tag, calls)
			}
			cancelled = true
			continue
		}
		requireSameFaint(t, tag, g, s.Solve(g, vars, nil, nil), FaintVarsWith(g, vars))
	}
	if !cancelled {
		t.Fatal("no program large enough to cancel")
	}
}
