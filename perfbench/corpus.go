package main

import (
	"fmt"

	"pdce"
)

// shape is one class of generated programs.
type shape struct {
	label       string
	stmts       int
	vars        int // 0 = the generator's default pool
	irreducible bool
	count       int
}

// compileShapes is the compile corpus. The shapes are the ones the
// benchmark must cover; the counts are not a claim about users' inputs.
// They were set for sample size: the latency percentiles fall among
// the costliest entries (p90 near the smallest 4096-statement ones,
// p99 among them), so every shape, the largest too, has enough
// programs that one seed's draw does not decide its figures. The
// report gives each shape's share of the ops and of their time. The
// 4096-statement programs are where the solver's scaling shows; the
// irreducible and dense-vars (4 variables) programs are where the
// dense, sparse and auto engines diverge.
var compileShapes = []shape{
	{"s256", 256, 0, false, 96},
	{"s1024", 1024, 0, false, 32},
	{"s4096", 4096, 0, false, 24},
	{"irr1024", 1024, 0, true, 24},
	{"dense1024", 1024, 4, false, 24},
}

// splitmix derives independent sub-seeds from the workload seed.
func splitmix(seed int64, stream, i int) int64 {
	z := uint64(seed) + uint64(stream)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}

// genSource generates one program and returns its name and source
// text in the CFG language, the form users submit.
func genSource(name string, seed int64, sh shape) string {
	p := pdce.Generate(pdce.GenParams{Seed: seed, Stmts: sh.stmts, Vars: sh.vars, Irreducible: sh.irreducible})
	p.Graph().Name = name
	return p.Format()
}

// program is one generated input.
type program struct {
	name, source string
}

// genPrograms generates sh.count programs from stream of the seed.
func genPrograms(seed int64, stream int, sh shape) []program {
	out := make([]program, sh.count)
	for i := range out {
		name := fmt.Sprintf("%s-%d", sh.label, i)
		out[i] = program{name: name, source: genSource(name, splitmix(seed, stream, i), sh)}
	}
	return out
}
