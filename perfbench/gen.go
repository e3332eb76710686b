package main

// Seeded program generators. Every workload draws its programs from these
// functions, keyed by (seed, stream, index), so one --seed always yields
// the same request sequence and nothing here depends on timing.

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"assignmentmotion/internal/cfggen"
	"assignmentmotion/internal/interp"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/printer"
	"assignmentmotion/internal/typeinference"
)

// mix derives an independent 63-bit seed from a base seed and a path of
// integers (splitmix64 finalizer over each step).
func mix(seed int64, path ...int64) int64 {
	z := uint64(seed)
	for _, p := range path {
		z += 0x9e3779b97f4a7c15 + uint64(p)
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return int64(z >> 1)
}

func rng(seed int64, path ...int64) *rand.Rand {
	return rand.New(rand.NewSource(mix(seed, path...)))
}

// fgText renders a generated graph as parseable .fg source. cfggen names
// the unstructured family's end blocks "entry"/"exit", which the parser
// reserves as keywords, so those are renamed first.
func fgText(g *ir.Graph, name string) string {
	for _, b := range g.Blocks {
		switch b.Name {
		case "entry":
			b.Name = "ent"
		case "exit":
			b.Name = "ext"
		}
	}
	g.Name = name
	return printer.String(g)
}

// stratum is a low-discrepancy fraction in [0, 1) for index i (the golden
// ratio sequence): sizes drawn through it cover their range evenly for
// every seed, so a run's size mix does not depend on the seed.
func stratum(i int) float64 {
	_, f := math.Modf(float64(i) * 0.6180339887498949)
	return f
}

// sized maps f in [0, 1) onto [lo, hi].
func sized(f float64, lo, hi int) int { return lo + int(f*float64(hi-lo+1)) }

// genFG returns one cfggen program in .fg syntax, structured or
// unstructured, of the given Size.
func genFG(r *rand.Rand, name string, structured bool, size int) string {
	cfg := cfggen.Config{Size: size}
	if structured {
		return fgText(cfggen.Structured(r.Int63(), cfg), name)
	}
	return fgText(cfggen.Unstructured(r.Int63(), cfg), name)
}

// exprGen builds random nested arithmetic expressions over a variable pool.
type exprGen struct {
	r    *rand.Rand
	vars []string
}

func (e exprGen) atom() string {
	if e.r.Intn(4) == 0 {
		return fmt.Sprint(1 + e.r.Intn(9))
	}
	return e.vars[e.r.Intn(len(e.vars))]
}

func (e exprGen) expr(depth int) string {
	if depth <= 0 || e.r.Intn(3) == 0 {
		return e.atom()
	}
	ops := []string{"+", "+", "-", "*"}
	l, r := e.expr(depth-1), e.expr(depth-1)
	s := l + " " + ops[e.r.Intn(len(ops))] + " " + r
	if depth > 1 {
		s = "(" + s + ")"
	}
	return s
}

func (e exprGen) rel() string {
	return []string{"<", "<=", ">", ">=", "==", "!="}[e.r.Intn(6)]
}

// genNested returns a §6 nested-expression program: a chain of diamonds
// whose arms recompute shared nested subexpressions.
func genNested(r *rand.Rand, name string, f float64) string {
	e := exprGen{r: r, vars: []string{"a", "b", "c", "d", "x", "y"}}
	n := sized(f, 3, 8)
	var sb strings.Builder
	fmt.Fprintf(&sb, "graph %s {\n  entry s0\n  exit done\n", name)
	fmt.Fprintf(&sb, "  block s0 {\n    x := %s\n    goto d0\n  }\n", e.expr(3))
	for i := 0; i < n; i++ {
		shared := e.expr(2)
		next := fmt.Sprintf("d%d", i+1)
		if i == n-1 {
			next = "done"
		}
		fmt.Fprintf(&sb, "  block d%d {\n    if %s %s %s then l%d else r%d\n  }\n", i, e.expr(2), e.rel(), e.expr(1), i, i)
		fmt.Fprintf(&sb, "  block l%d {\n    y := %s * %s\n    x := %s\n    goto j%d\n  }\n", i, shared, e.atom(), e.expr(3), i)
		fmt.Fprintf(&sb, "  block r%d {\n    y := %s - %s\n    goto j%d\n  }\n", i, shared, e.atom(), i)
		fmt.Fprintf(&sb, "  block j%d {\n    c := %s + y\n    out(c)\n    goto %s\n  }\n", i, shared, next)
	}
	fmt.Fprintf(&sb, "  block done { out(x, y) }\n}\n")
	return sb.String()
}

// genProg returns a structured mini-language program: counter-bounded
// loops and conditionals over nested expressions.
func genProg(r *rand.Rand, name string, f float64) string {
	e := exprGen{r: r, vars: []string{"a", "b", "c", "x", "y", "z"}}
	var sb strings.Builder
	fmt.Fprintf(&sb, "prog %s {\n", name)
	fmt.Fprintf(&sb, "  x := %s\n  y := 0\n  z := 0\n", e.expr(2))
	loops := sized(f, 1, 3)
	for l := 0; l < loops; l++ {
		fmt.Fprintf(&sb, "  i%d := 0\n  while i%d < %d {\n", l, l, 2+r.Intn(4))
		for s := 0; s < 1+r.Intn(3); s++ {
			fmt.Fprintf(&sb, "    %s := %s\n", e.vars[3+r.Intn(3)], e.expr(3))
		}
		fmt.Fprintf(&sb, "    if %s %s %s {\n      y := %s\n    } else {\n      z := %s\n    }\n", e.expr(2), e.rel(), e.expr(1), e.expr(2), e.expr(2))
		fmt.Fprintf(&sb, "    i%d := i%d + 1\n  }\n  out(x, y, z)\n", l, l)
	}
	sb.WriteString("}\n")
	return sb.String()
}

// genFun returns a typed-dialect program whose main loop runs n times (n
// is an input) and calls one helper function redundantly with
// loop-invariant arguments, so the optimizer has calls' worth of work to
// hoist. Inputs are x, y and n.
func genFun(r *rand.Rand, name string, f float64) string {
	e := exprGen{r: r, vars: []string{"a", "b"}}
	calls := sized(f, 2, 3)
	var sb strings.Builder
	fmt.Fprintf(&sb, "fn mix(a: int, b: int): int {\n\treturn %s + %s\n}\n\n", e.expr(3), e.expr(2))
	fmt.Fprintf(&sb, "prog %s {\n\tlet i = 0\n\tlet acc = 0\n\tlet s = x + y\n\tlet p = 0\n", name)
	fmt.Fprintf(&sb, "\twhile i < n {\n")
	for c := 0; c < calls; c++ {
		fmt.Fprintf(&sb, "\t\tp := mix(x, y)\n\t\tacc := acc + p - (x * y) %% %d\n", 3+r.Intn(7))
	}
	fmt.Fprintf(&sb, "\t\ts := s + (x + y) * %d + i %% %d\n", 1+r.Intn(5), 2+r.Intn(5))
	fmt.Fprintf(&sb, "\t\tif acc > %d {\n\t\t\tacc := acc - %d\n\t\t}\n", 100000+r.Intn(100000), 50000+r.Intn(40000))
	fmt.Fprintf(&sb, "\t\ti := i + 1\n\t}\n\tout(acc, s, p)\n}\n")
	return sb.String()
}

// funStepsPerTrip measures how many interpreter steps one trip of a
// genFun program's loop costs, so inputs can aim at a step target.
func funStepsPerTrip(src string) (float64, error) {
	g, _, err := typeinference.Compile(src)
	if err != nil {
		return 0, err
	}
	run := func(n int64) int {
		return interp.Run(g, map[ir.Var]int64{"x": 3, "y": 5, "n": n}, 0).Counts.Steps
	}
	return float64(run(200)-run(100)) / 100, nil
}

// inputsFor draws k seeded input environments over the source variables
// of g (small values: loop bounds in generated programs are constants or
// fuel counters, so any inputs terminate).
func inputsFor(r *rand.Rand, g *ir.Graph, k int) []map[ir.Var]int64 {
	vars := g.SourceVars()
	out := make([]map[ir.Var]int64, k)
	for i := range out {
		env := make(map[ir.Var]int64, len(vars))
		for _, v := range vars {
			env[v] = int64(r.Intn(21) - 6)
		}
		out[i] = env
	}
	return out
}

// diamondChain renders the experiment-E3 diamond chain: nd branch
// diamonds (4nd+2 blocks) whose per-diamond patterns are blocked at the
// branch. variant[i] selects diamond i's second-arm assignment, so
// changing one entry is a one-assignment edit inside one region.
func diamondChain(name string, variant []uint8) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "graph %s {\n  entry s0\n  exit done\n", name)
	fmt.Fprintf(&sb, "  block s0 {\n    pre := u + v\n    goto d0\n  }\n")
	nd := len(variant)
	for i := 0; i < nd; i++ {
		fmt.Fprintf(&sb, "  block d%d {\n    if u + v < 7 then a%d else b%d\n  }\n", i, i, i)
		var armY string
		switch variant[i] {
		case 0:
			armY = fmt.Sprintf("y%d := p + q", i)
		case 1:
			armY = fmt.Sprintf("y%d := x%d", i, i)
		case 2:
			armY = fmt.Sprintf("y%d := p - q", i)
		default:
			armY = fmt.Sprintf("y%d := x%d * 2", i, i)
		}
		fmt.Fprintf(&sb, "  block a%d {\n    x%d := p + q\n    %s\n    goto j%d\n  }\n", i, i, armY, i)
		fmt.Fprintf(&sb, "  block b%d {\n    z%d := p - q\n    goto j%d\n  }\n", i, i, i)
		next := fmt.Sprintf("d%d", i+1)
		if i == nd-1 {
			next = "done"
		}
		fmt.Fprintf(&sb, "  block j%d {\n    w%d := x%d\n    goto %s\n  }\n", i, i, i, next)
	}
	fmt.Fprintf(&sb, "  block done { out(u, pre) }\n}\n")
	return sb.String()
}

// editAssign rewrites one seeded assignment of g in place: a source
// variable's right-hand side gets a fresh term over the same variable
// pool. Loop counters (k*) and fuel are never touched, so loops keep
// their trip bounds.
func editAssign(r *rand.Rand, g *ir.Graph) {
	type site struct{ b, i int }
	var sites []site
	for bi, b := range g.Blocks {
		for ii, in := range b.Instrs {
			if in.Kind == ir.KindAssign && strings.HasPrefix(string(in.LHS), "v") {
				sites = append(sites, site{bi, ii})
			}
		}
	}
	if len(sites) == 0 {
		return
	}
	s := sites[r.Intn(len(sites))]
	in := &g.Blocks[s.b].Instrs[s.i]
	operand := func() ir.Operand {
		if r.Intn(4) == 0 {
			return ir.ConstOp(int64(r.Intn(9) - 4))
		}
		return ir.VarOp(ir.Var(fmt.Sprintf("v%d", r.Intn(6))))
	}
	ops := []ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul}
	for {
		t := ir.BinTerm(ops[r.Intn(len(ops))], operand(), operand())
		if t != in.RHS {
			in.RHS = t
			break
		}
	}
	g.MarkModified()
}
