package ir_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pdce/internal/ir"
	"pdce/internal/progen"
)

// The reference renderings below are the recursive string-concatenating
// Key and String the package used before its append encoder, kept as
// the oracle the encoder must match byte for byte.

func refKey(e ir.Expr) string {
	switch x := e.(type) {
	case ir.Const:
		return fmt.Sprintf("%d", x.Value)
	case ir.VarRef:
		return string(x.Name)
	case ir.Unary:
		return "(-" + refKey(x.X) + ")"
	case ir.Binary:
		return "(" + refKey(x.L) + string(x.Op) + refKey(x.R) + ")"
	}
	panic("unknown expression")
}

func refString(e ir.Expr) string {
	switch x := e.(type) {
	case ir.Const:
		return fmt.Sprintf("%d", x.Value)
	case ir.VarRef:
		return string(x.Name)
	case ir.Unary:
		return "-" + refOperand(x.X)
	case ir.Binary:
		return refOperand(x.L) + string(x.Op) + refOperand(x.R)
	}
	panic("unknown expression")
}

func refOperand(e ir.Expr) string {
	switch e.(type) {
	case ir.Const, ir.VarRef:
		return refString(e)
	}
	return "(" + refString(e) + ")"
}

func refStmt(s ir.Stmt) string {
	switch st := s.(type) {
	case ir.Assign:
		return string(st.LHS) + " := " + refString(st.RHS)
	case ir.Skip:
		return "skip"
	case ir.Out:
		return "out(" + refString(st.Arg) + ")"
	case ir.Branch:
		return "branch(" + refString(st.Cond) + ")"
	}
	panic("unknown statement")
}

// checkExprEncoding asserts every rendering of e, through the append
// encoder and through the Key/String wrappers, equals the reference.
// The encoder must append: what dst already holds stays in front.
func checkExprEncoding(t *testing.T, e ir.Expr) {
	t.Helper()
	key, str := refKey(e), refString(e)
	if got := string(ir.AppendKey([]byte("k:"), e)); got != "k:"+key {
		t.Errorf("AppendKey = %q, want %q", got, "k:"+key)
	}
	if got := string(ir.AppendExpr([]byte("s:"), e)); got != "s:"+str {
		t.Errorf("AppendExpr = %q, want %q", got, "s:"+str)
	}
	if got := e.Key(); got != key {
		t.Errorf("Key() = %q, want %q", got, key)
	}
	if got := e.String(); got != str {
		t.Errorf("String() = %q, want %q", got, str)
	}
}

func checkStmtEncoding(t *testing.T, s ir.Stmt) {
	t.Helper()
	want := refStmt(s)
	if got := string(ir.AppendStmt([]byte("  "), s)); got != "  "+want {
		t.Errorf("AppendStmt = %q, want %q", got, "  "+want)
	}
	if got := s.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if a, ok := s.(ir.Assign); ok {
		p, _ := ir.PatternOf(a)
		if p.LHS != a.LHS || p.RHS != refKey(a.RHS) {
			t.Errorf("PatternOf(%s) = %+v, want RHS %q", want, p, refKey(a.RHS))
		}
	}
}

// deepExpr builds a chain of alternating unary minus and binary nodes
// depth levels deep, long enough to overflow any stack buffer.
func deepExpr(depth int) ir.Expr {
	e := ir.V("x")
	for i := 0; i < depth; i++ {
		if i%3 == 0 {
			e = ir.Unary{Op: ir.OpNeg, X: e}
		} else {
			e = ir.Bin(ir.OpSub, ir.C(int64(-i)), e)
		}
	}
	return e
}

// randExpr builds random trees with negative constants, both extreme
// int64 values, every operator and unary minus anywhere, including on
// constants.
func randExpr(r *rand.Rand, depth int) ir.Expr {
	if depth == 0 || r.Intn(4) == 0 {
		switch r.Intn(4) {
		case 0:
			return ir.C(int64(r.Intn(2001) - 1000))
		case 1:
			return ir.C([]int64{math.MinInt64, math.MaxInt64, 0, -1}[r.Intn(4)])
		default:
			return ir.V([]ir.Var{"a", "b", "x.1", "_t9", "loop.i"}[r.Intn(5)])
		}
	}
	if r.Intn(5) == 0 {
		return ir.Unary{Op: ir.OpNeg, X: randExpr(r, depth-1)}
	}
	ops := []ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpMod,
		ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe}
	return ir.Bin(ops[r.Intn(len(ops))], randExpr(r, depth-1), randExpr(r, depth-1))
}

func TestEncoderHandCases(t *testing.T) {
	neg := func(e ir.Expr) ir.Expr { return ir.Unary{Op: ir.OpNeg, X: e} }
	exprs := []ir.Expr{
		ir.C(0), ir.C(-1), ir.C(-42), ir.C(math.MinInt64), ir.C(math.MaxInt64),
		ir.V("x"), ir.V("loop.i"),
		neg(ir.C(-5)),
		neg(neg(ir.V("x"))),
		neg(neg(neg(ir.C(math.MinInt64)))),
		ir.Sub(ir.C(-1), neg(ir.C(-2))),
		ir.Mul(neg(ir.Add(ir.V("a"), ir.C(-3))), ir.Sub(ir.V("b"), ir.Sub(ir.V("c"), ir.V("d")))),
		ir.Bin(ir.OpGe, ir.Bin(ir.OpMod, ir.V("i"), ir.C(math.MinInt64)), neg(ir.V("j"))),
		deepExpr(10),
		deepExpr(200),
	}
	for _, e := range exprs {
		checkExprEncoding(t, e)
		checkStmtEncoding(t, ir.Assign{LHS: "y", RHS: e})
		checkStmtEncoding(t, ir.Out{Arg: e})
		checkStmtEncoding(t, ir.Branch{Cond: e})
	}
	checkStmtEncoding(t, ir.Skip{})

	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		e := randExpr(r, 1+i%8)
		checkExprEncoding(t, e)
		checkStmtEncoding(t, ir.Assign{LHS: "v", RHS: e})
	}
}

// TestEncoderMatchesReferenceOnCorpus renders every statement and
// every sub-expression of the 200-program generated corpus (the
// CacheKey property test's) through the encoder and the reference.
func TestEncoderMatchesReferenceOnCorpus(t *testing.T) {
	stmts := 0
	for seed := 0; seed < 200; seed++ {
		g := progen.Generate(progen.Params{
			Seed:        int64(seed),
			Stmts:       10 + seed%60,
			Vars:        2 + seed%6,
			Irreducible: seed%7 == 0,
		})
		for _, n := range g.Nodes() {
			for _, s := range n.Stmts {
				stmts++
				checkStmtEncoding(t, s)
				var e ir.Expr
				switch st := s.(type) {
				case ir.Assign:
					e = st.RHS
				case ir.Out:
					e = st.Arg
				case ir.Branch:
					e = st.Cond
				default:
					continue
				}
				ir.Walk(e, func(sub ir.Expr) { checkExprEncoding(t, sub) })
			}
		}
		if t.Failed() {
			t.Fatalf("seed %d: encoder diverged from the reference", seed)
		}
	}
	if stmts < 5000 {
		t.Fatalf("corpus rendered only %d statements", stmts)
	}
}
