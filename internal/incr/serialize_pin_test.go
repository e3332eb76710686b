package incr

import (
	"strings"
	"testing"

	"assignmentmotion/internal/cfggen"
	"assignmentmotion/internal/core"
	"assignmentmotion/internal/corpus"
	"assignmentmotion/internal/figures"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/printer"
)

// The serializer pins: the content address (Fingerprint), the
// temp-canonical region digests (RegionSums) and the printed .fg text are
// persisted or compared across processes — cache keys on disk, manifest
// digests, golden files — so a rewrite of any serializer must reproduce
// them byte for byte. Every value below was computed by the fmt/io-based
// serializers the append-based ones replaced; a mismatch means on-disk
// caches and manifests written before the change would silently miss.

// pinGraphs returns the pinned graphs: every paper figure, a handful of
// fg and fun corpus programs, and one multi-region generated graph.
func pinGraphs() map[string]*ir.Graph {
	gs := map[string]*ir.Graph{}
	for _, name := range figures.Names() {
		gs["fig:"+name] = figures.Load(name)
	}
	for _, name := range []string{"dotprod", "gcdish", "interp", "statemachine", "ep_diamond_base"} {
		gs["fg:"+name] = corpus.Load(name)
	}
	for _, name := range []string{"fn_poly", "fn_stats"} {
		gs["fun:"+name] = corpus.LoadFun(name)
	}
	gs["cfggen:structured120"] = cfggen.Structured(7, cfggen.Config{Size: 120})
	return gs
}

// pinLine renders one graph's pinned values: the source fingerprint, the
// post-init fingerprint (which carries temporary bindings) and the
// post-init RegionSums, comma-joined.
func pinLine(g *ir.Graph) string {
	post := g.Clone()
	post.SplitCriticalEdges()
	core.Initialize(post)
	sums := RegionSums(post, ir.Regionize(post, 0))
	return g.Fingerprint().String() + " " + post.Fingerprint().String() + " " + strings.Join(sums, ",")
}

var serializerPins = map[string]string{
	"cfggen:structured120": "db2209559a8870cd64e8c4fb9451022cf74b6bc22b447b1edb3f083c14b957a9 b2f48cdd41704df0f2dca829d9c4bfa9181f90d26cc75a1dd1f6201c99069730 f37faaaedf2b58f0a7e220dfc7f195fd3407b6652455cc1769a4f5d2f3bd1469,83e8f84ca759c88e7a90a8a1e82f4aa6838631e4b2d0dbe2342fd162432f20f5,eb01b8d1cd59d4762003834028f8e484b095ff11c94d285cf042f7746b72bd20,512be90b875d45789acf4504f9f57c7ddc39a2b45f084e0270b45c7316477818,ff7477ec805c9c5c8323c1c39bed7c079661d067548bddc0356be8401fd48371,1a25832f33738fcba2a5ebd9fd171508476df24dfc26b118fa0a23cc1dbecdef",
	"fg:dotprod":           "86a69a1e1f6e732fb96832f063f17c4ff7ced281977456b968e902cafb0447c8 4572f9a060872eabf51857baf35b775fee681edbe2d7ce9f2bbea22c031382c1 3f0e32e67621049fcd632c7616ba54d4f6391e1793d3b84e62d235ee48d18634",
	"fg:ep_diamond_base":   "4715c5560800fe46a045d342d57deece1014619e19df9605618507ac9d42b434 5e9277d3c359a51ef3eff9686c469bd480378af08e927d75346f0263b586ff0d ae09e946c27cce1201a3a7d4cb305264625449bf974da7093289dcd29dcb1835,29a30b76f880d4aea06e263587da4eb854f029f3e75e822c8c8132ff8142d64c,cd48cd4335d519d3a07c1ff0340925e9071e63aef5277569492977206d7283be,6a44013f9bddd1eedd976d4412cd92852a577abb39c0e94b7c1ae31260fe82cf",
	"fg:gcdish":            "95a7ff73adaacf45818b1e848ee7ac7d5e502f122eb9bd199be02723ea2f9fff ea21f2fe78e5f546219fedb85c392486020817f6ae8960826e3018f44ce7d331 f7606eab906ec69ebf02bb157c1f8542cee78950424ea9ff3e8f9f0fd690872d",
	"fg:interp":            "af43b00cef0687bb6f69c8482f1d6c67cb78ddfd2d4bb0f08a383c4e511e5b9f 3f036886b11b34d639e51c2e1cea5aeb9627811eda5c169e377e58358d990da6 be141e340694893ec4dc0ab7df62e07e531b190d435e113cebe580de7276d0d8",
	"fg:statemachine":      "0c8affd8690834531cf1334ee7d7dc8cf1b25419ae2b57a10290d935dfadc15d 5adbfd8f5ed676a93ecbd1665985e6f6d3290c241bc847715daefb9adc804fdf 7244884cd3a353bff975953bfeedad14dd6e8d9831c495e7c531737e977530a0",
	"fig:fig01":            "b948036a88767e9c35d2de917b2b4d17b2cc1538a9e364d4cb2747af9fd1c4f8 ca7856f8c3a2ab1a1a98608d57696b94d153867bd836ff2a88be67edb78bf86b 11bb0961f346979ee3707c094152c603da0808a02fccbb04f667cb8b6f2330e3",
	"fig:fig02":            "be9acfacb214892f950547bf0ca95de154ef10f75f250c2b8c36ac4fd6f65fc7 9232b92d121c5c8cf4b868f07d4f8d76b19947666da8a28680ac6764bc51cde8 901378f9c3b81d2ec66bc2e642ea31d6def3b3efb149b8f31cc4f18e60fc29ff",
	"fig:fig07":            "ef1aea2571c1098dc4e4de0435ff7786454b8f06e668254855e340e2ffb83415 d25ce27db014a6c96a5de835131891a1a967e6b8220f8dffd9f64a818ace9d05 afad3c50dee8816d3f0249785b1a03266f7d990c9efc9df208b0367b9ae0122a",
	"fig:fig08":            "2b816855e8b9523096224531af116411f7b8f61181ae894fbb7c0cf4a13d0c55 e97b97254290d9f789b1fa27d4da882bfab8d3d04d15e8c82401ba2f86e22c4b 6a8a4c5045673759a4e33c84ae6b448fba2dcf144a4bc7244917fe90aa2c7859",
	"fig:fig10":            "8a62d119959a76c7f683dc987287f12bd3fefb2da0dc50e5dc848608e396e385 f86e6d4984774ca46307fc1e7216479e2c64d340c445a92927a21e5adfaa0749 536f8a34380f4cb10e2389af4197737264680d312e20ffbbcc8185455811fc09",
	"fig:fig16":            "9b59c290dcfb5ca95a7f4b0f675ea0566f7a07ffa29ecce90cd2de71d2e94ffc b12b10f7bfe7bdf70cafb0c41ae182349639aa3b79d379d075b051b65b0a08dc 3cae1f0656ea859e5acd637113a541caa1767e77bd0c552594b8b7667d491f3f",
	"fig:fig18":            "bb527d7c86c22625b706493e6da216cf57f0e9cce8ed81162bd05c5315cff463 a9a3e8c71b510cddc3de117a0a5b63788f4c0f44eda3cae1238e86fc8b3119dd 59d4eefed4892eb7285f3decccfcf2f11db52eeb8153425c8bc99809adbd1f9a",
	"fig:running":          "eefbac0bcf947bc8319c2a58ba023cce1d9a915b95ab867033bbec67e5bd62d8 f4ae73deabc8e4c0c526ea8681f95bfdef673bdd6ece0f5220c6019706efcb0a b5e01407579c8081db8e4a554b9357441e88e1835f5819fc1cb69a8f07a95ef6",
	"fun:fn_poly":          "f82ab7ce92e29ce2c4994201cce16a4919bf83ca6e4ab9138287af1a11d67c49 33785daf738294340a30e4d4083e70efa44ce3deecb9b6a01846d285af2579e1 6b290f09ea7c653d49714759c4259ba2e9763c8ba9d594d3f405ff8621c655bd",
	"fun:fn_stats":         "726e273820647b2f4292b3226cf36e65a375442a6ec00596d06d1900f665d9b7 a79fbd84dbf285e0f1549b969c25aa1e1c784f9b0057bc308ea48946975460ee 97b7cd981ec43fc56b7d271666fc5dfe7f9a43b9fbef42ff2a1971016c9048c8",
}

func TestSerializerPins(t *testing.T) {
	gs := pinGraphs()
	if len(gs) != len(serializerPins) {
		t.Errorf("pinned %d graphs, table has %d", len(gs), len(serializerPins))
	}
	for name, g := range gs {
		if got, want := pinLine(g), serializerPins[name]; got != want {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want)
		}
	}
}

// printerPinGraph exercises every printer branch: out(...) with
// several and constant arguments, a lone skip, negative constants in
// assignments and conditions, a branch, and plain gotos.
func printerPinGraph() *ir.Graph {
	b := ir.NewBuilder("pinned")
	b.Block("s").Assign("x", ir.BinTerm(ir.OpSub, ir.VarOp("a"), ir.ConstOp(-3)))
	b.Block("s").Assign("y", ir.ConstTerm(-12))
	b.Block("s").Cond(ir.OpLE, ir.BinTerm(ir.OpMul, ir.VarOp("x"), ir.ConstOp(-1)), ir.VarTerm("y"))
	b.Block("t").Assign("z", ir.VarTerm("x"))
	b.Block("f")
	b.Block("e").Out(ir.VarOp("x"), ir.ConstOp(-7), ir.VarOp("z"))
	b.Edge("s", "t")
	b.Edge("s", "f")
	b.Edge("t", "e")
	b.Edge("f", "e")
	return b.MustFinish("s", "e")
}

const printerPin = `graph pinned {
  entry s
  exit e
  block s {
    x := a - -3
    y := -12
    if x * -1 <= y then t else f
  }
  block t {
    z := x
    goto e
  }
  block f {
    skip
    goto e
  }
  block e {
    out(x, -7, z)
  }
}
`

func TestPrinterPin(t *testing.T) {
	if got := printer.String(printerPinGraph()); got != printerPin {
		t.Errorf("printed text moved:\n got %q\nwant %q", got, printerPin)
	}
}
