package analysis

import (
	"pdce/internal/bitvec"
	"pdce/internal/cfg"
	"pdce/internal/dataflow"
	"pdce/internal/ir"
	"pdce/internal/obs"
)

// FaintResult is the greatest solution of the faint-variable analysis
// of Table 1:
//
//	N-FAINT_ι(x) = ¬RELV-USED_ι(x) · (X-FAINT_ι(x) + MOD_ι(x))
//	                              · (X-FAINT_ι(lhs_ι) + ¬ASS-USED_ι(x))
//	X-FAINT_ι(x) = ∏_{ι' ∈ succ(ι)} N-FAINT_ι'(x)
//
// A variable is faint if on every path to the end node every
// right-hand-side occurrence is preceded by a modification or occurs
// in an assignment whose own left-hand side is faint. Faintness
// subsumes deadness and additionally catches self-sustaining useless
// computations such as the loop x := x+1 of Figure 9.
//
// The problem is not a bit-vector problem — the slot (ι, x) depends on
// the slot (ι, lhs_ι) of the same instruction — so the canonical
// solver works slotwise at instruction granularity, following the
// worklist discipline the paper describes in Sections 5.2 and 6.1.2.
//
// A result returned by FaintSolver.Solve aliases the solver's buffers
// and is valid until the solver's next Solve.
type FaintResult struct {
	Vars *ir.VarTable

	// SlotUpdates counts worklist slot processings — the quantity
	// Section 6.1.2 bounds by O(i·v). Only slots the all-ones start
	// violates, and slots whose inputs later fall, are ever processed,
	// so this counts fewer updates than seeding all i·v slots would.
	SlotUpdates int

	// Cancelled reports that the solve was interrupted before
	// reaching the fixpoint. A cancelled solution is partial — still
	// above the greatest fixpoint — and must not justify any
	// elimination.
	Cancelled bool

	entry, exit    []int32  // first and last instruction of each block
	nfaint, xfaint []uint64 // entry/exit vectors, stride words each
	stride         int
}

// FaintAfter reports whether variable v is faint immediately after
// statement idx of block n — the elimination criterion for faint code
// elimination.
func (r *FaintResult) FaintAfter(n *cfg.Node, idx int, v ir.Var) bool {
	vi, ok := r.Vars.Index(v)
	if !ok {
		return true
	}
	return slotGet(r.xfaint, r.stride, r.entry[n.ID]+int32(idx), vi)
}

// EntryFaint returns a copy of N-FAINT at the entry of block n.
func (r *FaintResult) EntryFaint(n *cfg.Node) *bitvec.Vector {
	return r.vector(r.nfaint, r.entry[n.ID])
}

// ExitFaint returns a copy of X-FAINT at the exit of block n.
func (r *FaintResult) ExitFaint(n *cfg.Node) *bitvec.Vector {
	return r.vector(r.xfaint, r.exit[n.ID])
}

func (r *FaintResult) vector(slab []uint64, i int32) *bitvec.Vector {
	v := bitvec.New(r.Vars.Len())
	for x := 0; x < v.Len(); x++ {
		if slotGet(slab, r.stride, i, x) {
			v.Set(x)
		}
	}
	return v
}

func slotGet(slab []uint64, stride int, i int32, x int) bool {
	return slab[int(i)*stride+x>>6]&(1<<(x&63)) != 0
}

// FaintVars solves the faint-variable analysis on g with the slotwise
// worklist algorithm.
func FaintVars(g *cfg.Graph) *FaintResult {
	return FaintVarsWith(g, g.CollectVars())
}

// FaintVarsWith is FaintVars over a caller-chosen variable universe.
func FaintVarsWith(g *cfg.Graph, vars *ir.VarTable) *FaintResult {
	return FaintVarsCancel(g, vars, nil)
}

// FaintVarsCancel is FaintVarsWith with a cancellation check consulted
// periodically while the slot worklist drains; when it returns true
// the solve stops early and the result comes back flagged Cancelled.
// A nil cancel solves to the fixpoint unconditionally.
func FaintVarsCancel(g *cfg.Graph, vars *ir.VarTable, cancel func() bool) *FaintResult {
	return FaintVarsObserve(g, vars, cancel, nil)
}

// FaintVarsObserve is FaintVarsCancel with a telemetry sink that
// receives the solve's slot-update and worklist-push counts (including
// the initial seeding) when it finishes or is cancelled. A nil sink
// collects nothing.
func FaintVarsObserve(g *cfg.Graph, vars *ir.VarTable, cancel func() bool, metrics *obs.SolverMetrics) *FaintResult {
	return new(FaintSolver).Solve(g, vars, cancel, metrics)
}

// FaintSolver is the slotwise faint-variable solver. It keeps its
// buffers between solves, so one solver held across the rounds of a
// run allocates only when a program outgrows every earlier one. The
// zero FaintSolver is ready to use.
//
// Instructions are numbered block by block in g.Nodes() order; an
// empty block contributes one implicit skip, so every block has an
// entry and an exit instruction. Inside a block the predecessor and
// successor of instruction i are i-1 and i+1; a block exit's
// successors are the entries of the block's flow successors, and a
// block entry's predecessors are the exits of its flow predecessors.
type FaintSolver struct {
	entry, exit []int32 // by NodeID
	block       []int32 // by instruction: its block's NodeID

	// The predecessor exits of block b are preds[predOff[b]:predOff[b+1]].
	predOff, preds, fill []int32

	// Per instruction: the LHS variable (-1 if none), the distinct
	// variables it reads (uses[useOff[i]:useOff[i+1]]) and whether it
	// is relevant (out or branch), which makes those reads RELV-USED
	// rather than ASS-USED.
	lhs, useOff, uses []int32
	relevant          []bool

	// N-FAINT and X-FAINT of instruction i are words
	// [i·stride, (i+1)·stride) of their slab; queued marks the
	// slots on the worklist in the same layout.
	nfaint, xfaint, queued []uint64
	queue                  []faintSlot
}

type faintSlot struct{ i, x int32 }

// Solve computes the greatest solution of the Table 1 equations on g
// over the variable universe vars. cancel and metrics behave as in
// FaintVarsObserve. The result aliases the solver's buffers until the
// next Solve.
func (s *FaintSolver) Solve(g *cfg.Graph, vars *ir.VarTable, cancel func() bool, metrics *obs.SolverMetrics) *FaintResult {
	s.number(g, vars)
	ni := len(s.block)
	stride := (vars.Len() + 63) / 64
	s.nfaint = growOnes(s.nfaint, ni*stride)
	s.xfaint = growOnes(s.xfaint, ni*stride)
	s.queued = grow(s.queued, ni*stride)
	clear(s.queued)

	entry, exit, block := s.entry, s.exit, s.block
	predOff, preds := s.predOff, s.preds
	lhs, useOff, uses, relevant := s.lhs, s.useOff, s.uses, s.relevant
	nfaint, xfaint, queued := s.nfaint, s.xfaint, s.queued
	nodes := g.Nodes()

	// Values only fall (true→false), so a slot needs re-evaluation
	// only after one of its inputs fell, and each slot enters the
	// queue O(1) times per dependency fall.
	queue := s.queue[:0]
	pushes := 0
	push := func(i, x int32) {
		k, bit := int(i)*stride+int(x>>6), uint64(1)<<(x&63)
		if queued[k]&bit == 0 {
			queued[k] |= bit
			queue = append(queue, faintSlot{i, x})
			pushes++
		}
	}
	// Seed only the slots the all-ones start violates. With every
	// N-FAINT and X-FAINT true, the X equation and the last two
	// N conjuncts hold everywhere, so the violated slots are exactly
	// the RELV-USED ones.
	for i := range relevant {
		if relevant[i] {
			for _, x := range uses[useOff[i]:useOff[i+1]] {
				push(int32(i), x)
			}
		}
	}

	r := &FaintResult{Vars: vars, entry: entry, exit: exit, nfaint: nfaint, xfaint: xfaint, stride: stride}
	for len(queue) > 0 {
		if cancel != nil && r.SlotUpdates%256 == 0 && cancel() {
			r.Cancelled = true
			break
		}
		sl := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		i, x := sl.i, sl.x
		w, bit := int(x>>6), uint64(1)<<(x&63)
		k := int(i)*stride + w
		queued[k] &^= bit
		r.SlotUpdates++
		b := block[i]

		// X-FAINT_i(x) = ∏ over successors of N-FAINT(x); the
		// empty product (end instruction) stays true.
		xFell := false
		if xfaint[k]&bit != 0 {
			newX := true
			if i == exit[b] {
				for _, sn := range nodes[b].Succs() {
					if nfaint[int(entry[sn.ID])*stride+w]&bit == 0 {
						newX = false
						break
					}
				}
			} else {
				newX = nfaint[k+stride]&bit != 0
			}
			if !newX {
				xfaint[k] &^= bit
				xFell = true
			}
		}

		if nfaint[k]&bit != 0 {
			used := false
			for _, u := range uses[useOff[i]:useOff[i+1]] {
				if u == x {
					used = true
					break
				}
			}
			// A used operand is RELV-USED in a relevant instruction
			// and ASS-USED in an assignment.
			var newN bool
			switch {
			case used && relevant[i]:
				newN = false
			case xfaint[k]&bit == 0 && lhs[i] != x:
				newN = false
			case used:
				newN = slotGet(xfaint, stride, i, int(lhs[i]))
			default:
				newN = true
			}
			if !newN {
				nfaint[k] &^= bit
				// The entry value of i feeds the exit values of
				// its predecessors.
				if i == entry[b] {
					for _, p := range preds[predOff[b]:predOff[b+1]] {
						push(p, x)
					}
				} else {
					push(i-1, x)
				}
			}
		}

		// The paper's subtlety: when the slot (ι, lhs_ι) has been
		// processed successfully (fell), the slots (ι, z) of the
		// right-hand-side variables z of ι depend on it and must
		// be revisited.
		if xFell && x == lhs[i] {
			for _, z := range uses[useOff[i]:useOff[i+1]] {
				push(i, z)
			}
		}
	}
	s.queue = queue
	metrics.RecordSlotSolve(r.SlotUpdates, pushes, r.Cancelled)
	return r
}

// number lays out g's instructions and their facts over vars.
func (s *FaintSolver) number(g *cfg.Graph, vars *ir.VarTable) {
	nn := g.NumNodes()
	s.entry = grow(s.entry, nn)
	s.exit = grow(s.exit, nn)
	s.predOff = grow(s.predOff, nn+1)
	clear(s.predOff)
	s.block, s.lhs, s.relevant = s.block[:0], s.lhs[:0], s.relevant[:0]
	s.useOff, s.uses = s.useOff[:0], s.uses[:0]
	for _, n := range g.Nodes() {
		s.entry[n.ID] = int32(len(s.block))
		if n.IsEmpty() {
			s.addInstr(n.ID, ir.Skip{}, vars)
		}
		for _, st := range n.Stmts {
			s.addInstr(n.ID, st, vars)
		}
		s.exit[n.ID] = int32(len(s.block) - 1)
		for _, sn := range n.Succs() {
			s.predOff[sn.ID+1]++
		}
	}
	s.useOff = append(s.useOff, int32(len(s.uses)))

	// Predecessor lists, in the order of the edges' sources in
	// g.Nodes().
	for b := 1; b <= nn; b++ {
		s.predOff[b] += s.predOff[b-1]
	}
	s.preds = grow(s.preds, int(s.predOff[nn]))
	s.fill = grow(s.fill, nn)
	copy(s.fill, s.predOff[:nn])
	for _, n := range g.Nodes() {
		for _, sn := range n.Succs() {
			s.preds[s.fill[sn.ID]] = s.exit[n.ID]
			s.fill[sn.ID]++
		}
	}
}

func (s *FaintSolver) addInstr(b cfg.NodeID, st ir.Stmt, vars *ir.VarTable) {
	s.block = append(s.block, int32(b))
	s.useOff = append(s.useOff, int32(len(s.uses)))
	l := int32(-1)
	relevant := false
	switch st := st.(type) {
	case ir.Assign:
		l = int32(vars.MustIndex(st.LHS))
	case ir.Out, ir.Branch:
		relevant = true
	}
	s.lhs = append(s.lhs, l)
	s.relevant = append(s.relevant, relevant)
	start := len(s.uses)
	ir.Uses(st, func(v ir.Var) {
		vi := int32(vars.MustIndex(v))
		for _, u := range s.uses[start:] {
			if u == vi {
				return
			}
		}
		s.uses = append(s.uses, vi)
	})
}

// grow returns s resized to n elements, reallocating only when its
// capacity is short. The contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// growOnes is grow with every word set.
func growOnes(s []uint64, n int) []uint64 {
	s = grow(s, n)
	for k := range s {
		s[k] = ^uint64(0)
	}
	return s
}

// --- Blockwise reference solver ------------------------------------

// faintProblem solves the same equations with a block-level worklist
// whose transfer walks the block backwards. Functionally equivalent to
// the slotwise solver (both compute the greatest fixpoint); kept as a
// cross-check oracle and ablation subject.
type faintProblem struct {
	vars *ir.VarTable
	bits int
}

func (p *faintProblem) Bits() int                     { return p.bits }
func (p *faintProblem) Direction() dataflow.Direction { return dataflow.Backward }
func (p *faintProblem) Meet() dataflow.Meet           { return dataflow.Intersect }
func (p *faintProblem) Boundary() *bitvec.Vector      { return bitvec.NewAllOnes(p.bits) }
func (p *faintProblem) Top() *bitvec.Vector           { return bitvec.NewAllOnes(p.bits) }

func (p *faintProblem) Transfer(n *cfg.Node, out, in *bitvec.Vector) {
	in.CopyFrom(out)
	for si := len(n.Stmts) - 1; si >= 0; si-- {
		faintStep(p.vars, n.Stmts[si], in)
	}
}

// faintStep updates v from X-FAINT to N-FAINT across one instruction,
// in place. Order matters twice: the conjunct involving X-FAINT(lhs)
// must read the pre-update value, and for a self-referential
// assignment (lhs among its own operands, e.g. x := x+1) with a
// non-faint target, the operand-clearing conjunct overrides the MOD
// disjunct — so MOD is applied first and the clears afterwards.
func faintStep(vars *ir.VarTable, s ir.Stmt, v *bitvec.Vector) {
	switch st := s.(type) {
	case ir.Assign:
		lhsIdx := vars.MustIndex(st.LHS)
		lhsFaintAfter := v.Get(lhsIdx)
		v.Set(lhsIdx) // + MOD
		if !lhsFaintAfter {
			// ASS-USED operands of a non-faint target are not
			// faint before the instruction.
			ir.ExprVars(st.RHS, func(u ir.Var) {
				v.Clear(vars.MustIndex(u))
			})
		}
	case ir.Out, ir.Branch:
		ir.Uses(s, func(u ir.Var) { // ¬RELV-USED
			v.Clear(vars.MustIndex(u))
		})
	}
}

// BlockFaintResult is the blockwise reference solution.
type BlockFaintResult struct {
	Vars   *ir.VarTable
	NFaint []*bitvec.Vector // block entry, by NodeID
	XFaint []*bitvec.Vector // block exit, by NodeID
	Stats  dataflow.SolverStats
}

// FaintVarsBlockwise solves the faint analysis with the block-level
// reference solver.
func FaintVarsBlockwise(g *cfg.Graph) *BlockFaintResult {
	vars := g.CollectVars()
	prob := &faintProblem{vars: vars, bits: vars.Len()}
	sol := dataflow.Solve(g, prob)
	return &BlockFaintResult{Vars: vars, NFaint: sol.In, XFaint: sol.Out, Stats: sol.Stats}
}

// InstrXFaint returns X-FAINT immediately after every statement of
// block n under the blockwise solution.
func (r *BlockFaintResult) InstrXFaint(n *cfg.Node) []*bitvec.Vector {
	out := make([]*bitvec.Vector, len(n.Stmts))
	cur := r.XFaint[n.ID].Copy()
	for si := len(n.Stmts) - 1; si >= 0; si-- {
		out[si] = cur.Copy()
		faintStep(r.Vars, n.Stmts[si], cur)
	}
	return out
}
