package ir

import (
	"reflect"
	"testing"
	"unsafe"
)

func TestSelfAssignIsSkip(t *testing.T) {
	in := NewAssign("x", VarTerm("x"))
	if in.Kind != KindSkip {
		t.Fatalf("x := x yielded %v, want skip", in)
	}
	// h := h is likewise skip; this identification underlies the local
	// confluence of the rewrite relation (Lemma 3.6).
	in = NewAssign("h1", VarTerm("h1"))
	if in.Kind != KindSkip {
		t.Fatalf("h1 := h1 yielded %v, want skip", in)
	}
	// x := x+0 is NOT skip: it is a genuine computation.
	in = NewAssign("x", BinTerm(OpAdd, VarOp("x"), ConstOp(0)))
	if in.Kind != KindAssign {
		t.Fatalf("x := x+0 yielded %v, want assignment", in)
	}
}

func TestInstrUsesDefs(t *testing.T) {
	assign := NewAssign("x", BinTerm(OpAdd, VarOp("a"), VarOp("b")))
	if got := assign.Uses(nil); !reflect.DeepEqual(got, []Var{"a", "b"}) {
		t.Errorf("uses = %v", got)
	}
	if v, ok := assign.Defs(); !ok || v != "x" {
		t.Errorf("defs = %v %v", v, ok)
	}
	if !assign.ModifiesVar("x") || assign.ModifiesVar("a") {
		t.Error("ModifiesVar wrong for assignment")
	}

	out := NewOut(VarOp("i"), VarOp("x"), ConstOp(1))
	if got := out.Uses(nil); !reflect.DeepEqual(got, []Var{"i", "x"}) {
		t.Errorf("out uses = %v", got)
	}
	if _, ok := out.Defs(); ok {
		t.Error("out defines a variable")
	}

	cond := NewCond(OpGT, BinTerm(OpAdd, VarOp("x"), VarOp("z")), BinTerm(OpAdd, VarOp("y"), VarOp("i")))
	if got := cond.Uses(nil); !reflect.DeepEqual(got, []Var{"x", "z", "y", "i"}) {
		t.Errorf("cond uses = %v", got)
	}
	if !cond.UsesVar("z") || cond.UsesVar("q") {
		t.Error("cond UsesVar wrong")
	}
}

func TestInstrKeysDistinct(t *testing.T) {
	ins := []Instr{
		Skip(),
		NewAssign("x", VarTerm("y")),
		NewAssign("x", BinTerm(OpAdd, VarOp("a"), VarOp("b"))),
		NewAssign("y", BinTerm(OpAdd, VarOp("a"), VarOp("b"))),
		NewOut(VarOp("x")),
		NewOut(VarOp("x"), VarOp("y")),
		NewCond(OpLT, VarTerm("a"), VarTerm("b")),
		NewCond(OpLE, VarTerm("a"), VarTerm("b")),
	}
	seen := map[string]bool{}
	for _, in := range ins {
		k := in.Key()
		if seen[k] {
			t.Errorf("duplicate key %q", k)
		}
		seen[k] = true
	}
}

func TestInstrEqual(t *testing.T) {
	a := NewAssign("x", BinTerm(OpAdd, VarOp("a"), VarOp("b")))
	b := NewAssign("x", BinTerm(OpAdd, VarOp("a"), VarOp("b")))
	c := NewAssign("x", BinTerm(OpAdd, VarOp("a"), VarOp("c")))
	if !a.Equal(b) {
		t.Error("identical assignments not equal")
	}
	if a.Equal(c) {
		t.Error("different assignments equal")
	}
	o1 := NewOut(VarOp("x"))
	o2 := NewOut(VarOp("x"), VarOp("y"))
	if o1.Equal(o2) {
		t.Error("different-arity outs equal")
	}
	if !o1.Equal(NewOut(VarOp("x"))) {
		t.Error("identical outs not equal")
	}
}

func TestInstrTerms(t *testing.T) {
	cond := NewCond(OpGT, BinTerm(OpAdd, VarOp("x"), VarOp("z")), VarTerm("y"))
	terms := cond.Terms(nil)
	if len(terms) != 2 {
		t.Fatalf("cond has %d terms, want 2", len(terms))
	}
	if terms[0].Key() != "x+z" || terms[1].Key() != "y" {
		t.Errorf("terms = %v", terms)
	}
	assign := NewAssign("x", BinTerm(OpMul, VarOp("a"), ConstOp(2)))
	if terms := assign.Terms(nil); len(terms) != 1 || terms[0].Key() != "a*2" {
		t.Errorf("assign terms = %v", terms)
	}
	if terms := NewOut(VarOp("x")).Terms(nil); len(terms) != 0 {
		t.Errorf("out terms = %v", terms)
	}
}

// TestInstrSize pins the instruction layout: the branch condition lives
// behind a pointer, so Instr is at most 136 bytes (304 with the condition
// inline). Every instruction slice, clone and cached graph pays this per
// instruction.
func TestInstrSize(t *testing.T) {
	if got := unsafe.Sizeof(Instr{}); got > 136 {
		t.Errorf("unsafe.Sizeof(Instr{}) = %d, want <= 136", got)
	}
}
