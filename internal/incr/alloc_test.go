package incr_test

import (
	"testing"

	"assignmentmotion/internal/cfggen"
	"assignmentmotion/internal/incr"
	"assignmentmotion/internal/ir"
)

// recordGraph records a clean cold run of g under cfg.
func recordGraph(t *testing.T, g *ir.Graph, cfg string) *incr.Manifest {
	t.Helper()
	rec := incr.NewRecorder(g.Fingerprint().String(), cfg)
	coldRun(t, g, rec)
	man := rec.Manifest()
	if man == nil {
		t.Fatal("recorder produced no manifest")
	}
	return man
}

// TestTryWarmRefusedAllocs is the allocation gate of a region-tier miss:
// TryWarm builds the source's post-init view once per attempt and checks
// every recorded head against it, so a never-seen graph tried against 8
// unrelated heads allocates at most 1.2x what one head costs (before the
// shared view, every head re-cloned and re-initialized the source).
func TestTryWarmRefusedAllocs(t *testing.T) {
	const cfg = "test-cfg"
	src := cfggen.Structured(1, cfggen.Config{Size: 40})
	fp := src.Fingerprint().String()
	attempt := func(heads int) float64 {
		d := incr.NewDriver(nil)
		for seed := int64(1); seed <= int64(heads); seed++ {
			d.Record(cfg, recordGraph(t, cfggen.Structured(100+seed, cfggen.Config{Size: 40}), cfg))
		}
		return testing.AllocsPerRun(20, func() {
			if _, ok := d.TryWarm(cfg, fp, src); ok {
				t.Fatal("an unrelated head certified a replay")
			}
		})
	}
	one, eight := attempt(1), attempt(8)
	if eight > 1.2*one {
		t.Errorf("8 heads allocate %.0f, more than 1.2x one head's %.0f", eight, one)
	}
}
