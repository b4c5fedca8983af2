package pdce_test

import (
	"runtime"
	"testing"

	"pdce/internal/core"
	"pdce/internal/parser"
	"pdce/internal/progen"
)

// TestTransformAllocBudget guards the allocation discipline of the
// incremental driver: a full pde and a full pfe run on the standard
// 1024-statement generated program must each stay within a fixed
// allocation budget.
//
// Each budget is ~2x the measured value, so it trips on a regression
// that reintroduces per-round re-allocation of analysis storage or
// per-statement re-resolution, while leaving room for routine drift.
// pde measures about 22k allocations with the dense worklist solver and
// rewrite-hint splicing (the pooled-storage driver before them needed
// ~28k, the pre-pooling one ~134k). pfe measures about 16.5k with the
// flat faint solver reused across rounds; per-instruction vectors, maps
// and edge slices, as before it, cost ~78k. Revisit the constants
// deliberately if the driver's structure changes.
func TestTransformAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement is slow")
	}
	g := progen.Generate(progen.Params{Seed: 42, Stmts: 1024})
	for _, c := range []struct {
		mode   core.Mode
		budget float64
	}{
		{core.ModeDead, 45_000},
		{core.ModeFaint, 35_000},
	} {
		avg := testing.AllocsPerRun(3, func() {
			if _, _, err := core.Transform(g, core.Options{Mode: c.mode}); err != nil {
				t.Fatal(err)
			}
		})
		if avg > c.budget {
			t.Errorf("core.Transform (%v) allocated %.0f objects on the 1024-stmt program, budget %.0f", c.mode, avg, c.budget)
		}
	}
}

// TestParseFormatAllocBudget guards the text boundary on the same
// 1024-statement program: ParseCFG's allocated bytes per parse and
// Format's allocation count per rendering.
//
// Each budget is ~2x the measured value. ParseCFG measures about
// 0.53 MB with the streaming lexer; the whole-source token slice
// before it cost 4.53 MB. Format measures 2 allocations with the
// append encoder (the buffer and the string); the fmt-based printer
// before it made ~7,000. Bringing back either trips the guard.
func TestParseFormatAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement is slow")
	}
	const (
		parseBytesBudget   = 1_100_000
		formatAllocsBudget = 4
	)
	g := progen.Generate(progen.Params{Seed: 42, Stmts: 1024})
	src := g.Format()

	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := parser.ParseCFG(src); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp > parseBytesBudget {
		t.Errorf("ParseCFG allocated %d bytes per parse of the 1024-stmt program, budget %d", perOp, parseBytesBudget)
	}

	if avg := testing.AllocsPerRun(5, func() { _ = g.Format() }); avg > formatAllocsBudget {
		t.Errorf("Format made %.0f allocations on the 1024-stmt program, budget %d", avg, formatAllocsBudget)
	}
}
