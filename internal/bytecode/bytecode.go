// Package bytecode compiles flow graphs into a compact executable form: a
// flat instruction array with resolved block offsets, variables interned
// to register slots, and operators lowered to small enums. The register
// executor is trace- and Counts-equivalent to the tree-walking
// internal/interp — the differential suite holds it to that, exactly — but
// runs several times faster because the hot loop touches no maps, no
// strings, and no per-step allocations.
package bytecode

import (
	"fmt"
	"strings"

	"assignmentmotion/internal/interp"
	"assignmentmotion/internal/ir"
)

type opcode uint8

const (
	opBlock opcode = iota // block entry: Blocks++, not a step
	opSkip
	opAssign
	opOut
	opJump
	opCond
	opHalt
)

// aop is an arithmetic operator, pre-decoded from ir.Op (a string) so the
// executor switches on a byte.
type aop uint8

const (
	aopNone aop = iota // trivial term: operand A alone
	aopAdd
	aopSub
	aopMul
	aopDiv
	aopRem
)

// rop is a relational operator.
type rop uint8

const (
	ropLT rop = iota
	ropLE
	ropGT
	ropGE
	ropEQ
	ropNE
)

// marg is one pre-resolved operand: a register index, or a constant when
// reg < 0.
type marg struct {
	reg int32
	val int64
}

// cterm is a compiled 3-address term: at most one operator over two
// operands. op == aopNone means the trivial term a.
type cterm struct {
	op   aop
	a, b marg
}

// instr is one compiled instruction. A single struct with a kind tag keeps
// the code array flat and the dispatch loop branch-predictable.
type instr struct {
	op     opcode
	rel    rop   // opCond
	temp   bool  // opAssign: destination is a registered temporary
	dst    int32 // opAssign destination register
	to     int32 // opJump target; opCond then-target
	toElse int32 // opCond else-target
	t      cterm // opAssign RHS
	l, r   cterm // opCond sides
	args   []marg
}

// Program is a compiled graph, ready to execute any number of times.
type Program struct {
	name  string
	code  []instr
	start int32
	vars  []ir.Var // register index → variable
	regOf map[ir.Var]int32
}

// Name returns the source graph's name.
func (p *Program) Name() string { return p.name }

// Len returns the number of compiled instructions.
func (p *Program) Len() int { return len(p.code) }

// Compile lowers g. The graph must be valid (ir.Validate); in particular a
// branch condition may appear only as the final instruction of a
// two-successor block, which is what lets conditions compile to a single
// two-target branch instruction.
func Compile(g *ir.Graph) (*Program, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("bytecode: %w", err)
	}
	p := &Program{name: g.Name, regOf: map[ir.Var]int32{}}
	reg := func(v ir.Var) int32 {
		if r, ok := p.regOf[v]; ok {
			return r
		}
		r := int32(len(p.vars))
		p.vars = append(p.vars, v)
		p.regOf[v] = r
		return r
	}
	operand := func(o ir.Operand) marg {
		if o.IsConst {
			return marg{reg: -1, val: o.Const}
		}
		return marg{reg: reg(o.Var)}
	}
	term := func(t ir.Term) (cterm, error) {
		if t.Trivial() {
			return cterm{op: aopNone, a: operand(t.Args[0])}, nil
		}
		var op aop
		switch t.Op {
		case ir.OpAdd:
			op = aopAdd
		case ir.OpSub:
			op = aopSub
		case ir.OpMul:
			op = aopMul
		case ir.OpDiv:
			op = aopDiv
		case ir.OpRem:
			op = aopRem
		default:
			return cterm{}, fmt.Errorf("bytecode: unknown operator %q", t.Op)
		}
		return cterm{op: op, a: operand(t.Args[0]), b: operand(t.Args[1])}, nil
	}

	// First pass: emit per-block code, recording block start offsets and
	// leaving jump targets as block IDs to patch once all offsets exist.
	startOf := map[ir.NodeID]int32{}
	type fixup struct {
		pc     int
		then   ir.NodeID
		orElse ir.NodeID
		cond   bool
	}
	var fixups []fixup
	for _, b := range g.Blocks {
		startOf[b.ID] = int32(len(p.code))
		p.code = append(p.code, instr{op: opBlock})
		for i, in := range b.Instrs {
			last := i == len(b.Instrs)-1
			switch in.Kind {
			case ir.KindSkip:
				p.code = append(p.code, instr{op: opSkip})
			case ir.KindAssign:
				t, err := term(in.RHS)
				if err != nil {
					return nil, err
				}
				p.code = append(p.code, instr{
					op: opAssign, dst: reg(in.LHS), temp: g.IsTemp(in.LHS), t: t,
				})
			case ir.KindOut:
				args := make([]marg, len(in.Args))
				for j, o := range in.Args {
					args[j] = operand(o)
				}
				p.code = append(p.code, instr{op: opOut, args: args})
			case ir.KindCond:
				if !last || len(b.Succs) != 2 {
					return nil, fmt.Errorf("bytecode: block %s: condition not the final instruction of a two-successor block", b.Name)
				}
				l, err := term(in.Cond.L)
				if err != nil {
					return nil, err
				}
				r, err := term(in.Cond.R)
				if err != nil {
					return nil, err
				}
				var rl rop
				switch in.Cond.Op {
				case ir.OpLT:
					rl = ropLT
				case ir.OpLE:
					rl = ropLE
				case ir.OpGT:
					rl = ropGT
				case ir.OpGE:
					rl = ropGE
				case ir.OpEQ:
					rl = ropEQ
				case ir.OpNE:
					rl = ropNE
				default:
					return nil, fmt.Errorf("bytecode: unknown relational operator %q", in.Cond.Op)
				}
				fixups = append(fixups, fixup{pc: len(p.code), then: b.Succs[0], orElse: b.Succs[1], cond: true})
				p.code = append(p.code, instr{op: opCond, rel: rl, l: l, r: r})
			default:
				return nil, fmt.Errorf("bytecode: block %s: unknown instruction kind", b.Name)
			}
		}
		switch len(b.Succs) {
		case 0:
			if b.ID != g.Exit {
				return nil, fmt.Errorf("bytecode: dead end at non-exit block %s", b.Name)
			}
			p.code = append(p.code, instr{op: opHalt})
		case 1:
			fixups = append(fixups, fixup{pc: len(p.code), then: b.Succs[0]})
			p.code = append(p.code, instr{op: opJump})
		case 2:
			// Terminated by the opCond emitted above; Validate guarantees
			// the final instruction is the condition.
		default:
			return nil, fmt.Errorf("bytecode: block %s has %d successors", b.Name, len(b.Succs))
		}
	}
	for _, f := range fixups {
		p.code[f.pc].to = startOf[f.then]
		if f.cond {
			p.code[f.pc].toElse = startOf[f.orElse]
		}
	}
	p.start = startOf[g.Entry]
	return p, nil
}

// Run executes the program; see interp.Run for the semantics replicated.
func (p *Program) Run(init map[ir.Var]int64, maxSteps int) interp.Result {
	return p.RunWith(init, maxSteps, interp.Options{})
}

// RunWith executes the compiled program with explicit options. The result
// — trace, final environment, truncation/trap flags, and every Counts
// field — is identical to interp.RunWith on the source graph.
func (p *Program) RunWith(init map[ir.Var]int64, maxSteps int, opts interp.Options) interp.Result {
	if maxSteps <= 0 {
		maxSteps = interp.DefaultMaxSteps
	}
	regs := make([]int64, len(p.vars))
	written := make([]bool, len(p.vars))
	for v, x := range init {
		if r, ok := p.regOf[v]; ok {
			regs[r] = x
		}
	}

	var c interp.Counts
	var trace []int64
	truncated, trapped := false, false
	trapZero := opts.TrapOnDivZero

	value := func(m marg) int64 {
		if m.reg < 0 {
			return m.val
		}
		return regs[m.reg]
	}
	// eval mirrors interp.evalTermOpt: trivial terms cost nothing;
	// compound terms count one ExprEval; division and remainder by zero
	// yield 0 unless trapping.
	eval := func(t *cterm) (int64, bool) {
		if t.op == aopNone {
			return value(t.a), false
		}
		c.ExprEvals++
		a, b := value(t.a), value(t.b)
		switch t.op {
		case aopAdd:
			return a + b, false
		case aopSub:
			return a - b, false
		case aopMul:
			return a * b, false
		case aopDiv:
			if b == 0 {
				return 0, trapZero
			}
			return a / b, false
		default: // aopRem
			if b == 0 {
				return 0, trapZero
			}
			return a % b, false
		}
	}

	code := p.code
	pc := p.start
loop:
	for {
		in := &code[pc]
		switch in.op {
		case opBlock:
			c.Blocks++
			pc++
		case opSkip:
			if c.Steps >= maxSteps {
				truncated = true
				break loop
			}
			c.Steps++
			pc++
		case opAssign:
			if c.Steps >= maxSteps {
				truncated = true
				break loop
			}
			c.Steps++
			v, trap := eval(&in.t)
			if trap {
				trapped = true
				break loop
			}
			regs[in.dst] = v
			written[in.dst] = true
			c.AssignExecs++
			if in.temp {
				c.TempAssignExecs++
			}
			pc++
		case opOut:
			if c.Steps >= maxSteps {
				truncated = true
				break loop
			}
			c.Steps++
			for i := range in.args {
				trace = append(trace, value(in.args[i]))
			}
			pc++
		case opJump:
			pc = in.to
		case opCond:
			if c.Steps >= maxSteps {
				truncated = true
				break loop
			}
			c.Steps++
			l, trapL := eval(&in.l)
			r, trapR := eval(&in.r)
			if trapL || trapR {
				trapped = true
				break loop
			}
			take := false
			switch in.rel {
			case ropLT:
				take = l < r
			case ropLE:
				take = l <= r
			case ropGT:
				take = l > r
			case ropGE:
				take = l >= r
			case ropEQ:
				take = l == r
			case ropNE:
				take = l != r
			}
			if take {
				pc = in.to
			} else {
				pc = in.toElse
			}
		case opHalt:
			break loop
		}
	}

	env := make(map[ir.Var]int64, len(init)+8)
	for v, x := range init {
		env[v] = x
	}
	for r, w := range written {
		if w {
			env[p.vars[r]] = regs[r]
		}
	}
	return interp.Result{
		Counts:    c,
		Trace:     trace,
		Env:       env,
		Truncated: truncated,
		Trapped:   trapped,
	}
}

// Execute compiles and runs g once; the convenience form for one-shot
// callers (the CLI, the server).
func Execute(g *ir.Graph, init map[ir.Var]int64, maxSteps int, opts interp.Options) (interp.Result, error) {
	p, err := Compile(g)
	if err != nil {
		return interp.Result{}, err
	}
	return p.RunWith(init, maxSteps, opts), nil
}

// Disasm renders the compiled form for debugging and tests.
func (p *Program) Disasm() string {
	var sb strings.Builder
	argStr := func(m marg) string {
		if m.reg < 0 {
			return fmt.Sprintf("%d", m.val)
		}
		return string(p.vars[m.reg])
	}
	termStr := func(t cterm) string {
		if t.op == aopNone {
			return argStr(t.a)
		}
		ops := [...]string{aopAdd: "+", aopSub: "-", aopMul: "*", aopDiv: "/", aopRem: "%"}
		return fmt.Sprintf("%s %s %s", argStr(t.a), ops[t.op], argStr(t.b))
	}
	rels := [...]string{ropLT: "<", ropLE: "<=", ropGT: ">", ropGE: ">=", ropEQ: "==", ropNE: "!="}
	for pc, in := range p.code {
		switch in.op {
		case opBlock:
			fmt.Fprintf(&sb, "%4d  block\n", pc)
		case opSkip:
			fmt.Fprintf(&sb, "%4d  skip\n", pc)
		case opAssign:
			fmt.Fprintf(&sb, "%4d  %s := %s\n", pc, p.vars[in.dst], termStr(in.t))
		case opOut:
			parts := make([]string, len(in.args))
			for i, a := range in.args {
				parts[i] = argStr(a)
			}
			fmt.Fprintf(&sb, "%4d  out(%s)\n", pc, strings.Join(parts, ", "))
		case opJump:
			fmt.Fprintf(&sb, "%4d  jump %d\n", pc, in.to)
		case opCond:
			fmt.Fprintf(&sb, "%4d  if %s %s %s then %d else %d\n",
				pc, termStr(in.l), rels[in.rel], termStr(in.r), in.to, in.toElse)
		case opHalt:
			fmt.Fprintf(&sb, "%4d  halt\n", pc)
		}
	}
	return sb.String()
}
