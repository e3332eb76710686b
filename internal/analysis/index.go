package analysis

import (
	"assignmentmotion/internal/arena"
	"assignmentmotion/internal/bitvec"
	"assignmentmotion/internal/ir"
)

// PatternIndex precomputes, for one assignment-pattern universe, the
// per-variable effect vectors that let the analyses build their local
// predicate vectors in O(1) bit-vector operations per instruction instead
// of testing every (instruction, pattern) pair:
//
//   - killByDef[v]: patterns invalidated when v is (re)defined — those
//     with LHS v or with v among their RHS operands;
//   - blockByUse[v]: patterns blocked when v is read — those with LHS v
//     (motion of x := t must not cross a read of x);
//   - selfRef: patterns whose LHS occurs in their RHS (never redundant,
//     Table 2's side condition).
type PatternIndex struct {
	U          *ir.PatternSet
	killByDef  map[ir.Var]bitvec.Vec
	blockByUse map[ir.Var]bitvec.Vec
	selfRef    bitvec.Vec
	empty      bitvec.Vec   // shared all-zero vector for absent variables
	singleton  []bitvec.Vec // lazily built shared {id} vectors (see GenVec)
}

// NewPatternIndex builds the index for u.
func NewPatternIndex(u *ir.PatternSet) *PatternIndex {
	bits := u.Len()
	px := &PatternIndex{
		U:          u,
		killByDef:  map[ir.Var]bitvec.Vec{},
		blockByUse: map[ir.Var]bitvec.Vec{},
		selfRef:    bitvec.New(bits),
		empty:      bitvec.New(bits),
	}
	vec := func(m map[ir.Var]bitvec.Vec, v ir.Var) bitvec.Vec {
		w, ok := m[v]
		if !ok {
			w = bitvec.New(bits)
			m[v] = w
		}
		return w
	}
	for id := 0; id < bits; id++ {
		p := u.PatternAt(id)
		vec(px.killByDef, p.LHS).Set(id)
		vec(px.blockByUse, p.LHS).Set(id)
		if !p.RHS.Args[0].IsConst {
			vec(px.killByDef, p.RHS.Args[0].Var).Set(id)
		}
		if !p.RHS.Trivial() && !p.RHS.Args[1].IsConst {
			vec(px.killByDef, p.RHS.Args[1].Var).Set(id)
		}
		if p.SelfReferential() {
			px.selfRef.Set(id)
		}
	}
	return px
}

// SelfRef returns the vector of self-referential patterns (shared; do not
// mutate).
func (px *PatternIndex) SelfRef() bitvec.Vec { return px.selfRef }

// OccID returns the pattern ID of instruction in when it is an assignment
// whose pattern belongs to the universe.
func (px *PatternIndex) OccID(in *ir.Instr) (int, bool) {
	if in.Kind != ir.KindAssign {
		return 0, false
	}
	return px.U.ID(ir.AssignPattern{LHS: in.LHS, RHS: in.RHS})
}

// killVec returns the patterns whose value association is destroyed by
// instruction in (Table 2's ¬ASS-TRANSP): those killed by in's definition.
func (px *PatternIndex) killVec(in *ir.Instr) bitvec.Vec {
	if in.Kind != ir.KindAssign {
		return px.empty
	}
	if v, ok := px.killByDef[in.LHS]; ok {
		return v
	}
	return px.empty
}

// KillVec returns killVec(in) for callers assembling the dense gen/kill
// form of an instruction-level problem. The vector is shared index state:
// read-only.
func (px *PatternIndex) KillVec(in *ir.Instr) bitvec.Vec { return px.killVec(in) }

// Empty returns the shared all-zero vector (read-only), the Gen/Kill
// entry of instructions with no effect on a problem.
func (px *PatternIndex) Empty() bitvec.Vec { return px.empty }

// GenVec returns the shared singleton vector {id} (read-only), the Gen
// entry of an occurrence of pattern id. Built lazily: only patterns that
// actually occur pay for a vector.
func (px *PatternIndex) GenVec(id int) bitvec.Vec {
	if px.singleton == nil {
		px.singleton = make([]bitvec.Vec, px.U.Len())
	}
	if px.singleton[id].Len() == 0 {
		v := bitvec.New(px.U.Len())
		v.Set(id)
		px.singleton[id] = v
	}
	return px.singleton[id]
}

// OrKill ors killVec(in) into dst.
func (px *PatternIndex) OrKill(in *ir.Instr, dst bitvec.Vec) {
	dst.Or(px.killVec(in))
}

// AndNotKill removes killVec(in) from dst (dst = dst · ASS-TRANSP(in)).
func (px *PatternIndex) AndNotKill(in *ir.Instr, dst bitvec.Vec) {
	dst.AndNot(px.killVec(in))
}

// OrBlocked ors into dst every pattern blocked by instruction in: those
// killed by in's definition plus those whose LHS is read by in.
func (px *PatternIndex) OrBlocked(in *ir.Instr, dst bitvec.Vec) {
	dst.Or(px.killVec(in))
	switch in.Kind {
	case ir.KindAssign:
		px.orUseBlocks(&in.RHS, dst)
	case ir.KindOut:
		for i := range in.Args {
			if !in.Args[i].IsConst {
				if v, ok := px.blockByUse[in.Args[i].Var]; ok {
					dst.Or(v)
				}
			}
		}
	case ir.KindCond:
		px.orUseBlocks(&in.Cond.L, dst)
		px.orUseBlocks(&in.Cond.R, dst)
	}
}

func (px *PatternIndex) orUseBlocks(t *ir.Term, dst bitvec.Vec) {
	if !t.Args[0].IsConst {
		if v, ok := px.blockByUse[t.Args[0].Var]; ok {
			dst.Or(v)
		}
	}
	if !t.Trivial() && !t.Args[1].IsConst {
		if v, ok := px.blockByUse[t.Args[1].Var]; ok {
			dst.Or(v)
		}
	}
}

// BlockLocals computes Table 1's LOC-HOISTABLE and LOC-BLOCKED vectors for
// block b in one forward walk, also returning the block-local candidate
// instruction index per pattern (-1 when the pattern has no candidate in
// b), for the insertion step's removals. Candidates: the first occurrence
// of a pattern not preceded by a blocker.
func (px *PatternIndex) BlockLocals(b *ir.Block) (locHoistable, locBlocked bitvec.Vec, candidates []int) {
	return px.BlockLocalsArena(b, nil)
}

// BlockLocalsArena is BlockLocals with the vectors and the candidate table
// carved from ar (heap when nil), for the hoisting fixpoint's per-round
// analysis.
func (px *PatternIndex) BlockLocalsArena(b *ir.Block, ar *arena.Arena) (locHoistable, locBlocked bitvec.Vec, candidates []int) {
	bits := px.U.Len()
	locHoistable = ar.Vec(bits)
	locBlocked = ar.Vec(bits)
	candidates = ar.Ints(bits)
	for id := range candidates {
		candidates[id] = -1
	}
	for i := range b.Instrs {
		in := &b.Instrs[i]
		if id, ok := px.OccID(in); ok && !locBlocked.Get(id) && !locHoistable.Get(id) {
			locHoistable.Set(id)
			candidates[id] = i
		}
		px.OrBlocked(in, locBlocked)
	}
	return locHoistable, locBlocked, candidates
}

// BlockLocalsReverse is BlockLocals for sinking: candidates are the last
// occurrences not followed by a blocker.
func (px *PatternIndex) BlockLocalsReverse(b *ir.Block) (locSinkable, locBlocked bitvec.Vec, candidates map[int]int) {
	bits := px.U.Len()
	locSinkable = bitvec.New(bits)
	locBlocked = bitvec.New(bits)
	candidates = map[int]int{}
	for i := len(b.Instrs) - 1; i >= 0; i-- {
		in := &b.Instrs[i]
		if id, ok := px.OccID(in); ok && !locBlocked.Get(id) && !locSinkable.Get(id) {
			locSinkable.Set(id)
			candidates[id] = i
		}
		px.OrBlocked(in, locBlocked)
	}
	return locSinkable, locBlocked, candidates
}
