// Package printer renders flow graphs back into the ".fg" source language
// (round-trippable through internal/parse) and into Graphviz dot for
// visual inspection of transformation results.
package printer

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"assignmentmotion/internal/ir"
)

// Fprint writes g in .fg syntax to w. The output parses back (with
// AllowTemps) to a graph with the same Encode() value.
func Fprint(w io.Writer, g *ir.Graph) error {
	bp := bufPool.Get().(*[]byte)
	defer bufPool.Put(bp)
	*bp = appendGraph((*bp)[:0], g)
	_, err := w.Write(*bp)
	return err
}

// String renders g in .fg syntax. Rendering goes through a pooled
// buffer, so the only allocation is the returned string, whatever the
// size of the graph.
func String(g *ir.Graph) string {
	bp := bufPool.Get().(*[]byte)
	defer bufPool.Put(bp)
	*bp = appendGraph((*bp)[:0], g)
	return string(*bp)
}

// bufPool holds the render buffers of Fprint and String.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// appendGraph appends g in .fg syntax to dst and returns the extended
// slice.
func appendGraph(dst []byte, g *ir.Graph) []byte {
	dst = append(append(dst, "graph "...), g.Name...)
	dst = append(append(dst, " {\n  entry "...), g.EntryBlock().Name...)
	dst = append(append(dst, "\n  exit "...), g.ExitBlock().Name...)
	dst = append(dst, '\n')
	for _, b := range g.Blocks {
		dst = append(append(dst, "  block "...), b.Name...)
		dst = append(dst, " {\n"...)
		for k := range b.Instrs {
			in := &b.Instrs[k]
			switch in.Kind {
			case ir.KindSkip:
				// A lone skip keeps otherwise-empty blocks parseable;
				// skips next to real instructions are not printed.
				if len(b.Instrs) == 1 {
					dst = append(dst, "    skip\n"...)
				}
			case ir.KindAssign:
				dst = append(append(dst, "    "...), in.LHS...)
				dst = appendTerm(append(dst, " := "...), in.RHS)
				dst = append(dst, '\n')
			case ir.KindOut:
				dst = append(dst, "    out("...)
				for i, o := range in.Args {
					if i > 0 {
						dst = append(dst, ", "...)
					}
					dst = o.AppendKey(dst)
				}
				dst = append(dst, ")\n"...)
			case ir.KindCond:
				dst = appendTerm(append(dst, "    if "...), in.Cond.L)
				dst = append(append(append(dst, ' '), in.Cond.Op...), ' ')
				dst = appendTerm(dst, in.Cond.R)
				dst = append(append(dst, " then "...), g.Block(b.Succs[0]).Name...)
				dst = append(append(dst, " else "...), g.Block(b.Succs[1]).Name...)
				dst = append(dst, '\n')
			}
		}
		if _, hasCond := b.Cond(); !hasCond && len(b.Succs) == 1 {
			dst = append(append(dst, "    goto "...), g.Block(b.Succs[0]).Name...)
			dst = append(dst, '\n')
		}
		dst = append(dst, "  }\n"...)
	}
	return append(dst, "}\n"...)
}

// appendTerm appends t in source syntax: "a", "3", or "a + b".
func appendTerm(dst []byte, t ir.Term) []byte {
	dst = t.Args[0].AppendKey(dst)
	if t.Trivial() {
		return dst
	}
	dst = append(append(append(dst, ' '), t.Op...), ' ')
	return t.Args[1].AppendKey(dst)
}

// Dot renders g as a Graphviz digraph. Blocks become record-shaped nodes
// listing their instructions; branch edges are labelled T/F.
func Dot(g *ir.Graph) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n", g.Name)
	sb.WriteString("  node [shape=box, fontname=\"monospace\"];\n")
	for _, b := range g.Blocks {
		var lines []string
		lines = append(lines, b.Name)
		for _, in := range b.Instrs {
			lines = append(lines, in.String())
		}
		label := strings.Join(lines, "\\l") + "\\l"
		attrs := ""
		if b.ID == g.Entry {
			attrs = ", penwidth=2"
		}
		if b.ID == g.Exit {
			attrs = ", peripheries=2"
		}
		fmt.Fprintf(&sb, "  %q [label=\"%s\"%s];\n", b.Name, label, attrs)
	}
	for _, b := range g.Blocks {
		_, branch := b.Cond()
		for i, s := range b.Succs {
			label := ""
			if branch {
				if i == 0 {
					label = " [label=\"T\"]"
				} else {
					label = " [label=\"F\"]"
				}
			}
			fmt.Fprintf(&sb, "  %q -> %q%s;\n", b.Name, g.Block(s).Name, label)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}
