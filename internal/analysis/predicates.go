package analysis

import "assignmentmotion/internal/ir"

// The predicates below take pointers: they run in O(instructions ×
// patterns) loops inside every analysis, where passing the ~200-byte
// instruction struct by value dominates the profile.

// termUsesVar reports whether v occurs in *t, without allocating.
func termUsesVar(t *ir.Term, v ir.Var) bool {
	if !t.Args[0].IsConst && t.Args[0].Var == v {
		return true
	}
	return !t.Trivial() && !t.Args[1].IsConst && t.Args[1].Var == v
}

// instrUsesVar reports whether instruction *in reads v.
func instrUsesVar(in *ir.Instr, v ir.Var) bool {
	switch in.Kind {
	case ir.KindAssign:
		return termUsesVar(&in.RHS, v)
	case ir.KindOut:
		for i := range in.Args {
			if !in.Args[i].IsConst && in.Args[i].Var == v {
				return true
			}
		}
	case ir.KindCond:
		return termUsesVar(&in.Cond.L, v) || termUsesVar(&in.Cond.R, v)
	}
	return false
}

// BlocksPattern reports whether instruction in blocks motion of the
// assignment pattern α ≡ x := t (Definition 3.1 discussion): in modifies an
// operand of t, or uses or modifies x. Note that an occurrence of α itself
// blocks α (it modifies x), which is why at most the first occurrence in a
// basic block is a hoisting candidate (Figure 13).
func BlocksPattern(in *ir.Instr, p *ir.AssignPattern) bool {
	if in.Kind == ir.KindAssign {
		if in.LHS == p.LHS { // modifies x
			return true
		}
		if termUsesVar(&p.RHS, in.LHS) { // modifies an operand of t
			return true
		}
	}
	return instrUsesVar(in, p.LHS) // uses x
}

// AssTransp is Table 2's ASS-TRANSP: instruction in is transparent for
// α ≡ v := t, i.e. neither v nor any operand of t is modified by in.
func AssTransp(in *ir.Instr, p *ir.AssignPattern) bool {
	if in.Kind != ir.KindAssign {
		return true
	}
	if in.LHS == p.LHS {
		return false
	}
	return !termUsesVar(&p.RHS, in.LHS)
}

// Executed is Table 2's EXECUTED: instruction in is an occurrence of α.
func Executed(in *ir.Instr, p *ir.AssignPattern) bool {
	return in.Kind == ir.KindAssign && in.LHS == p.LHS && in.RHS == p.RHS
}

// CandidateIndex returns the index of the hoisting candidate of pattern p
// in block b: the first occurrence of p that is not preceded (within the
// block) by any instruction blocking p. There is at most one candidate per
// block because an occurrence blocks every later one (Figure 13).
func CandidateIndex(b *ir.Block, p *ir.AssignPattern) (int, bool) {
	for i := range b.Instrs {
		in := &b.Instrs[i]
		if Executed(in, p) {
			return i, true
		}
		if BlocksPattern(in, p) {
			return 0, false
		}
	}
	return 0, false
}

// LocHoistable is Table 1's LOC-HOISTABLE: block b contains a hoisting
// candidate of p.
func LocHoistable(b *ir.Block, p *ir.AssignPattern) bool {
	_, ok := CandidateIndex(b, p)
	return ok
}

// LocBlocked is Table 1's LOC-BLOCKED: some instruction of b blocks p.
func LocBlocked(b *ir.Block, p *ir.AssignPattern) bool {
	for i := range b.Instrs {
		if BlocksPattern(&b.Instrs[i], p) {
			return true
		}
	}
	return false
}

// UsesTemp is Table 3's USED: instruction in reads temporary h.
func UsesTemp(in *ir.Instr, h ir.Var) bool { return instrUsesVar(in, h) }

// IsInst is Table 3's IS-INST: instruction in is an instance of h := ε.
func IsInst(in *ir.Instr, h ir.Var, expr ir.Term) bool {
	return in.Kind == ir.KindAssign && in.LHS == h && in.RHS == expr
}

// BlocksInit is Table 3's BLOCKED: instruction in blocks sinking of the
// initialization h := ε, i.e. modifies an operand of ε or modifies h by
// other means. (Uses of h are handled separately by USED in the equations.)
func BlocksInit(in *ir.Instr, h ir.Var, expr ir.Term) bool {
	if in.Kind != ir.KindAssign {
		return false
	}
	if in.LHS == h && !IsInst(in, h, expr) {
		return true
	}
	return termUsesVar(&expr, in.LHS)
}
