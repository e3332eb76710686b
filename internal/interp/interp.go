// Package interp executes flow graphs over integer environments and counts
// the cost measures the paper's optimality results are stated in:
// expression evaluations (Theorem 5.2), assignment executions
// (Theorem 5.3), and assignments to temporaries (Theorem 5.4).
//
// Semantics: variables hold int64 values and default to 0; out(...) appends
// its argument values to the observable trace; a branch transfers control
// to the first successor when its condition holds and to the second
// otherwise. Division and remainder by zero yield 0 — a total semantics, so
// that "same out-trace" is a sound and complete equivalence oracle for the
// motion transformations, which may reorder an assignment relative to an
// out statement that does not mention its variables.
package interp

import (
	"fmt"

	"assignmentmotion/internal/ir"
)

// Counts aggregates the dynamic cost measures of one execution.
type Counts struct {
	// ExprEvals counts evaluations of non-trivial terms: compound
	// right-hand sides and compound branch-condition sides. This is the
	// paper's primary cost measure (expression optimality, Theorem 5.2).
	ExprEvals int
	// AssignExecs counts executed assignment instructions, including
	// trivial copies and assignments to temporaries (Theorem 5.3).
	AssignExecs int
	// TempAssignExecs counts executed assignments whose target is a
	// temporary h_ε (Theorem 5.4).
	TempAssignExecs int
	// Steps counts all executed instructions (incl. skip and out).
	Steps int
	// Blocks counts basic-block entries.
	Blocks int
}

// Result reports one execution.
type Result struct {
	Counts Counts
	// Trace is the flattened sequence of values written by out().
	Trace []int64
	// Env is the final environment.
	Env map[ir.Var]int64
	// Truncated is true when the step budget ran out before the exit
	// node completed; Trace then holds the prefix produced so far.
	Truncated bool
	// Trapped is true when Options.TrapOnDivZero was set and a division
	// or remainder by zero occurred; execution stopped at that point.
	Trapped bool
}

// Options tune the execution semantics.
type Options struct {
	// TrapOnDivZero makes division/remainder by zero abort the execution
	// (Trapped = true) instead of yielding 0. This is the semantics under
	// which the paper's footnote 3 distinction is observable: admissible
	// assignment motion preserves run-time errors, while dead code
	// elimination may remove them.
	TrapOnDivZero bool
}

// DefaultMaxSteps bounds executions of programs with loops.
const DefaultMaxSteps = 100_000

// Run executes g starting from a copy of init (missing variables are 0)
// with the given step budget; maxSteps <= 0 selects DefaultMaxSteps.
func Run(g *ir.Graph, init map[ir.Var]int64, maxSteps int) Result {
	return RunWith(g, init, maxSteps, Options{})
}

// RunWith is Run with explicit semantic options.
func RunWith(g *ir.Graph, init map[ir.Var]int64, maxSteps int, opts Options) Result {
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}
	env := make(map[ir.Var]int64, len(init)+8)
	for v, x := range init {
		env[v] = x
	}
	res := Result{Env: env}

	cur := g.Entry
	for {
		b := g.Block(cur)
		res.Counts.Blocks++
		takeThen := false
		for _, in := range b.Instrs {
			if res.Counts.Steps >= maxSteps {
				res.Truncated = true
				return res
			}
			res.Counts.Steps++
			switch in.Kind {
			case ir.KindSkip:
				// no effect
			case ir.KindAssign:
				v, trapped := evalTermOpt(in.RHS, env, &res.Counts, opts)
				if trapped {
					res.Trapped = true
					return res
				}
				env[in.LHS] = v
				res.Counts.AssignExecs++
				if g.IsTemp(in.LHS) {
					res.Counts.TempAssignExecs++
				}
			case ir.KindOut:
				for _, o := range in.Args {
					res.Trace = append(res.Trace, evalOperand(o, env))
				}
			case ir.KindCond:
				l, trapL := evalTermOpt(in.Cond.L, env, &res.Counts, opts)
				r, trapR := evalTermOpt(in.Cond.R, env, &res.Counts, opts)
				if trapL || trapR {
					res.Trapped = true
					return res
				}
				takeThen = evalRel(in.Cond.Op, l, r)
			}
		}
		switch len(b.Succs) {
		case 0:
			if cur != g.Exit {
				panic(fmt.Sprintf("interp: dead end at non-exit block %s", b.Name))
			}
			return res
		case 1:
			cur = b.Succs[0]
		case 2:
			if takeThen {
				cur = b.Succs[0]
			} else {
				cur = b.Succs[1]
			}
		default:
			panic(fmt.Sprintf("interp: block %s has %d successors", b.Name, len(b.Succs)))
		}
	}
}

func evalOperand(o ir.Operand, env map[ir.Var]int64) int64 {
	if o.IsConst {
		return o.Const
	}
	return env[o.Var]
}

func evalTermOpt(t ir.Term, env map[ir.Var]int64, c *Counts, opts Options) (int64, bool) {
	if t.Trivial() {
		return evalOperand(t.Args[0], env), false
	}
	c.ExprEvals++
	a := evalOperand(t.Args[0], env)
	b := evalOperand(t.Args[1], env)
	switch t.Op {
	case ir.OpAdd:
		return a + b, false
	case ir.OpSub:
		return a - b, false
	case ir.OpMul:
		return a * b, false
	case ir.OpDiv:
		if b == 0 {
			return 0, opts.TrapOnDivZero
		}
		return a / b, false
	case ir.OpRem:
		if b == 0 {
			return 0, opts.TrapOnDivZero
		}
		return a % b, false
	}
	panic(fmt.Sprintf("interp: unknown operator %q", t.Op))
}

func evalRel(op ir.Op, a, b int64) bool {
	switch op {
	case ir.OpLT:
		return a < b
	case ir.OpLE:
		return a <= b
	case ir.OpGT:
		return a > b
	case ir.OpGE:
		return a >= b
	case ir.OpEQ:
		return a == b
	case ir.OpNE:
		return a != b
	}
	panic(fmt.Sprintf("interp: unknown relational operator %q", op))
}

// TraceEqual compares two traces; when either execution was truncated the
// comparison is on the common prefix (a truncated run may have stopped
// mid-output).
func TraceEqual(a, b Result) bool {
	ta, tb := a.Trace, b.Trace
	if a.Truncated || b.Truncated {
		n := len(ta)
		if len(tb) < n {
			n = len(tb)
		}
		ta, tb = ta[:n], tb[:n]
	}
	if len(ta) != len(tb) {
		return false
	}
	for i := range ta {
		if ta[i] != tb[i] {
			return false
		}
	}
	return true
}
