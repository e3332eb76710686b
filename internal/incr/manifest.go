// Package incr implements region-granular incremental re-optimization:
// a versioned, content-addressed artifact layer that lets an edited
// graph reuse the optimization work of every region the edit did not
// touch, while staying byte-identical to a cold whole-graph run.
//
// A cold run of the default pipeline records a Manifest: the post-init
// region decomposition and per-region content digests, the per-round
// boundary dataflow facts every region exchanged with the rest of the
// graph during the AM fixpoint (the hoisting facts N/X at region
// boundaries, insertion sequences crossing boundaries, availability at
// region exits), per-round first-occurrence positions (which pin the
// insertion order), per-region change signals, the flush phase's
// boundary facts (delayability and usability at region boundaries),
// and the final optimized program. A warm run diffs a resubmitted
// graph's regions against a predecessor manifest, replays the recorded
// AM rounds and the final flush on the single dirty region as compact
// boundary-pinned sub-problems, certifies at every step that the dirty
// region's exported facts match the recording (which, by induction,
// pins the untouched regions' entire trajectories), and stitches the
// recorded clean-region results back — so warm cost scales with the
// dirty region, not the graph. Any certificate mismatch abandons the
// replay and falls back to the cold path, so the byte-identity
// guarantee is unconditional.
package incr

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strconv"
	"strings"
	"sync"

	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/parse"
)

// Version is the manifest envelope version. Any change to the recorded
// shape must bump it; decoding rejects other versions, which simply
// demotes old artifacts to cold runs.
const Version = 2

// headsMax bounds the per-config ring of recent fingerprints a warm run
// diffs against.
const headsMax = 8

// tauPrefix marks a temporary in temp-canonical serializations. Temps
// are numbered by creation order, which shifts under edits, so region
// digests and manifest patterns name a temp by the expression it binds
// (h_ε ↦ "τ(ε)") — a naming that is invariant across resubmissions.
const tauPrefix = "\x00τ("

// Manifest is the per-graph incremental artifact: everything a warm run
// needs to replay one dirty region and reuse the rest. It is stored
// JSON-encoded behind the engine's Backend seam, keyed by config and
// source fingerprint.
type Manifest struct {
	Version int    `json:"v"`
	Fp      string `json:"fp"`  // source-graph fingerprint
	Cfg     string `json:"cfg"` // engine config key (pipeline/recovery/budget)

	// Post-init structure, in block slice-index space. An edit that
	// changes any of these is a structural edit and replays cold.
	NBlocks int     `json:"n"`
	Entry   int     `json:"entry"`
	Exit    int     `json:"exit"`
	Succs   [][]int `json:"succs"`

	// Region decomposition of the post-init graph and the per-region
	// temp-canonical content digests the diff runs against.
	Regions [][]int  `json:"regions"`
	Sums    []string `json:"sums"`

	// Universe is the post-init pattern universe in ID order,
	// temp-canonically encoded. Recorded bit vectors index into it.
	Universe []PatternRec `json:"universe"`

	K      int        `json:"k"` // AM rounds to fixpoint (incl. final no-change round)
	Rounds []RoundRec `json:"rounds"`

	// Eliminated is the total rae removal count, for cross-checking.
	Eliminated int `json:"eliminated"`

	// Temps is the post-AM temp universe in g.Temps() order, named by the
	// canonical key of each temp's bound expression. The flush boundary
	// vectors below are bitsets over it.
	Temps []string `json:"temps"`

	// Flush boundary facts, keyed by block slice index. DExt is the meet
	// of external predecessors' exit X-DELAYABLE (injected), DOut the
	// block's own exit X-DELAYABLE (certified); NDEnt the entry
	// N-DELAYABLE of boundary-entry blocks (injected into the dirty
	// region's X-LATEST computation); UExt the join of external
	// successors' entry N-USABLE (injected), UEnt the block's own entry
	// N-USABLE (certified).
	DExt  map[int][]byte `json:"dext,omitempty"`
	DOut  map[int][]byte `json:"dout,omitempty"`
	NDEnt map[int][]byte `json:"ndent,omitempty"`
	UExt  map[int][]byte `json:"uext,omitempty"`
	UEnt  map[int][]byte `json:"uent,omitempty"`

	// FlushRegions attributes the flush statistics to regions
	// (dropped, inserted, reconstructed per region); FlushTotal is their
	// sum, i.e. the cold run's flush.Stats.
	FlushRegions [][3]int `json:"fregions"`
	FlushTotal   [3]int   `json:"ftotal"`

	// Final is the whole optimized program after flush — the run's
	// result — in canonical form. Stitching copies the clean regions'
	// blocks out of it, renaming temps by binding.
	Final string `json:"final"`

	// finalG memoizes the parsed Final graph: recorded manifests are
	// seeded with a clone of the live result, decoded ones parse once on
	// first replay.
	finalOnce sync.Once
	finalG    *ir.Graph
}

// finalGraph returns the parsed Final program, or nil when Final does not
// parse (a corrupt artifact: the caller refuses the replay).
func (m *Manifest) finalGraph() *ir.Graph {
	m.finalOnce.Do(func() {
		if m.finalG != nil {
			return
		}
		g, err := parse.ParseWith(m.Final, parse.Options{AllowTemps: true})
		if err != nil {
			return
		}
		m.finalG = g
	})
	return m.finalG
}

// seedFinal installs an already-materialized final graph (the recorder's
// live result), so in-process replays never re-parse.
func (m *Manifest) seedFinal(g *ir.Graph) {
	m.finalOnce.Do(func() { m.finalG = g })
}

// PatternRec is one assignment pattern, temp-canonically encoded: vars
// carry tauPrefix+exprKey+")" when they are temporaries.
type PatternRec struct {
	L  string `json:"l"`
	Op string `json:"op,omitempty"`
	A  OpRec  `json:"a"`
	B  OpRec  `json:"b,omitempty"`
}

// OpRec is one operand.
type OpRec struct {
	C bool   `json:"c,omitempty"`
	K int64  `json:"k,omitempty"`
	V string `json:"v,omitempty"`
}

// RoundRec captures one AM round. Map keys are block slice indices;
// vectors are bitsets over the manifest universe.
type RoundRec struct {
	// Backward (hoisting) boundary facts. XExt is the meet of external
	// successors' N-HOISTABLE (the input a replay injects); NEntry,
	// XExit are the facts the region exports (certification targets).
	XExt   map[int][]byte `json:"xext,omitempty"`
	NEntry map[int][]byte `json:"nentry,omitempty"`
	XExit  map[int][]byte `json:"xexit,omitempty"`
	// FExt is the external frontier contribution ∨ ¬X-HOISTABLE over
	// external predecessors, for entry blocks.
	FExt map[int][]byte `json:"fext,omitempty"`
	// Pin records prepend sequences entering a block from an external
	// branch predecessor, keyed "block,pred", as ordered pattern IDs.
	Pin map[string][]int `json:"pin,omitempty"`
	// InsN / InsX record each block's insertion sets as ordered pattern
	// ID lists (first-occurrence order). Clean blocks' lists certify
	// that the edit did not reorder their insertions; a dirty branch
	// block's InsX pins the sequence it prepends into clean successors.
	InsN map[int][]int `json:"insn,omitempty"`
	InsX map[int][]int `json:"insx,omitempty"`
	// First-occurrence positions at round start, per pattern ID:
	// Pos1 is the global first position (block<<20|instr, -1 absent),
	// Reg1 its region, Pos2 the first position outside that region
	// (-1 absent). Together they yield the exact first position outside
	// ANY single dirty region.
	Pos1 []int64 `json:"pos1"`
	Reg1 []int64 `json:"reg1"`
	Pos2 []int64 `json:"pos2"`
	// Forward (availability) boundary facts: AExt the meet of external
	// predecessors' exit availability (input), AOut the region's exit
	// availability (certification target).
	AExt map[int][]byte `json:"aext,omitempty"`
	AOut map[int][]byte `json:"aout,omitempty"`
	// Per-region change signals: whether hoisting rewrote any block of
	// the region this round, and how many occurrences rae removed.
	Changed []bool `json:"changed"`
	Removed []int  `json:"removed"`
}

// Encode serializes the manifest.
func (m *Manifest) Encode() ([]byte, error) { return json.Marshal(m) }

// DecodeManifest parses a stored manifest, rejecting other versions.
func DecodeManifest(data []byte) (*Manifest, bool) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil || m.Version != Version {
		return nil, false
	}
	return &m, true
}

// ManifestKey is the artifact-store key of the manifest for one
// (config, source fingerprint) pair.
func ManifestKey(cfg, fp string) string {
	return "incr|v" + strconv.Itoa(Version) + "|" + cfg + "|" + fp
}

// HeadsKey is the store key of the per-config ring of recent source
// fingerprints (the predecessor candidates a warm run diffs against).
func HeadsKey(cfg string) string { return "incr-heads|v" + strconv.Itoa(Version) + "|" + cfg }

// --- temp-canonical encoding -------------------------------------------

// varEncoder renames temporaries to their binding-based canonical name.
type varEncoder struct{ g *ir.Graph }

func (e varEncoder) enc(v ir.Var) string {
	if e.g.IsTemp(v) {
		return string(e.appendVar(nil, v))
	}
	return string(v)
}

// appendVar appends v's temp-canonical name (enc) to dst.
func (e varEncoder) appendVar(dst []byte, v ir.Var) []byte {
	if e.g.IsTemp(v) {
		if expr, ok := e.g.TempExpr(v); ok {
			dst = append(dst, tauPrefix...)
			return append(expr.AppendKey(dst), ')')
		}
	}
	return append(dst, v...)
}

func (e varEncoder) operand(o ir.Operand) OpRec {
	if o.IsConst {
		return OpRec{C: true, K: o.Const}
	}
	return OpRec{V: e.enc(o.Var)}
}

func (e varEncoder) pattern(p ir.AssignPattern) PatternRec {
	rec := PatternRec{L: e.enc(p.LHS), Op: string(p.RHS.Op), A: e.operand(p.RHS.Args[0])}
	if !p.RHS.Trivial() {
		rec.B = e.operand(p.RHS.Args[1])
	}
	return rec
}

func (e varEncoder) appendOperand(dst []byte, o ir.Operand) []byte {
	if o.IsConst {
		return strconv.AppendInt(dst, o.Const, 10)
	}
	return e.appendVar(dst, o.Var)
}

func (e varEncoder) appendTerm(dst []byte, t ir.Term) []byte {
	dst = e.appendOperand(dst, t.Args[0])
	if !t.Trivial() {
		dst = append(dst, t.Op...)
		dst = e.appendOperand(dst, t.Args[1])
	}
	return dst
}

func (e varEncoder) appendInstr(dst []byte, in *ir.Instr) []byte {
	switch in.Kind {
	case ir.KindSkip:
		dst = append(dst, "skip"...)
	case ir.KindAssign:
		dst = e.appendVar(dst, in.LHS)
		dst = append(dst, ":="...)
		dst = e.appendTerm(dst, in.RHS)
	case ir.KindOut:
		dst = append(dst, "out("...)
		for i, a := range in.Args {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = e.appendOperand(dst, a)
		}
		dst = append(dst, ')')
	case ir.KindCond:
		dst = e.appendTerm(dst, in.Cond.L)
		dst = append(dst, in.Cond.Op...)
		dst = e.appendTerm(dst, in.Cond.R)
	}
	return dst
}

// RegionSums computes the temp-canonical content digest of every region:
// each member block's slice index, instructions (temps named by their
// bound expression), and successor indices. Equal digests mean the
// regions' content is identical up to the global temp numbering shift an
// edit elsewhere induces. Each block is serialized into one reused
// buffer and written to one reused SHA-256 state.
func RegionSums(g *ir.Graph, rs *ir.RegionSet) []string {
	enc := varEncoder{g: g}
	sums := make([]string, rs.Len())
	h := sha256.New()
	var buf []byte
	var sum [sha256.Size]byte
	for r, region := range rs.Regions {
		h.Reset()
		for _, id := range region {
			b := g.Block(id)
			buf = strconv.AppendInt(append(buf[:0], 'b'), int64(id), 10)
			buf = append(buf, '|')
			for k := range b.Instrs {
				buf = append(enc.appendInstr(buf, &b.Instrs[k]), ';')
			}
			buf = append(buf, "->"...)
			for _, s := range b.Succs {
				buf = append(strconv.AppendInt(buf, int64(s), 10), ',')
			}
			buf = append(buf, '\n')
			h.Write(buf)
		}
		sums[r] = hex.EncodeToString(h.Sum(sum[:0]))
	}
	return sums
}

// decodeVar resolves a temp-canonical var name in the namespace of g:
// source vars map to themselves, τ(ε) names to g's temp bound to ε.
// ok is false when g has no temp for ε.
func decodeVar(g *ir.Graph, tempByKey map[string]ir.Var, name string) (ir.Var, bool) {
	if !strings.HasPrefix(name, tauPrefix) {
		return ir.Var(name), true
	}
	key := strings.TrimSuffix(strings.TrimPrefix(name, tauPrefix), ")")
	v, ok := tempByKey[key]
	return v, ok
}

// tempKeyMap indexes g's temporaries by the canonical key of their
// bound expression.
func tempKeyMap(g *ir.Graph) map[string]ir.Var {
	m := make(map[string]ir.Var)
	for _, h := range g.Temps() {
		if e, ok := g.TempExpr(h); ok {
			m[e.Key()] = h
		}
	}
	return m
}

// decodePattern resolves a manifest pattern into g's namespace.
func decodePattern(g *ir.Graph, tempByKey map[string]ir.Var, rec PatternRec) (ir.AssignPattern, bool) {
	decodeOp := func(o OpRec) (ir.Operand, bool) {
		if o.C {
			return ir.ConstOp(o.K), true
		}
		v, ok := decodeVar(g, tempByKey, o.V)
		return ir.VarOp(v), ok
	}
	lhs, ok := decodeVar(g, tempByKey, rec.L)
	if !ok {
		return ir.AssignPattern{}, false
	}
	a, ok := decodeOp(rec.A)
	if !ok {
		return ir.AssignPattern{}, false
	}
	if rec.Op == "" {
		return ir.AssignPattern{LHS: lhs, RHS: ir.OperandTerm(a)}, true
	}
	b, ok := decodeOp(rec.B)
	if !ok {
		return ir.AssignPattern{}, false
	}
	return ir.AssignPattern{LHS: lhs, RHS: ir.Term{Op: ir.Op(rec.Op), Args: [2]ir.Operand{a, b}}}, true
}

// --- bitset codec -------------------------------------------------------

func vecBytes(bits []int, width int) []byte {
	out := make([]byte, (width+7)/8)
	for _, i := range bits {
		out[i/8] |= 1 << (i % 8)
	}
	return out
}

func byteBit(b []byte, i int) bool {
	if i/8 >= len(b) {
		return false
	}
	return b[i/8]&(1<<(i%8)) != 0
}

func byteBits(b []byte) []int {
	var out []int
	for i := 0; i < len(b)*8; i++ {
		if byteBit(b, i) {
			out = append(out, i)
		}
	}
	return out
}
