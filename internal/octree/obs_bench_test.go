package octree

import (
	"testing"

	"bonsai/internal/grav"
	"bonsai/internal/obs"
	"bonsai/internal/vec"
)

// benchWalkObs measures the walk hot path with a given list-length histogram
// (nil = tracing disabled). Comparing the nil-histogram run against
// BenchmarkWalk100k bounds the cost of the disabled observability layer — the
// acceptance bar is ≤2% — and the non-nil run prices enabled recording.
func benchWalkObs(b *testing.B, listLen *obs.Hist) {
	pos, mass := clusteredCloud(100_000, 1)
	tr, _ := BuildFrom(pos, mass, 16, 0)
	groups := tr.MakeGroups(64)
	n := tr.NumParticles()
	acc := make([]vec.V3, n)
	pot := make([]float64, n)
	b.ResetTimer()
	var st grav.Stats
	for i := 0; i < b.N; i++ {
		for j := range acc {
			acc[j] = vec.V3{}
			pot[j] = 0
		}
		WalkGroups(tr, groups, tr.Pos, 0.4, 1e-4, acc, pot, 0, &st, listLen)
	}
	b.ReportMetric(st.Flops()/float64(b.N)/1e9, "Gflop/op")
}

// BenchmarkTraceOverhead/disabled is the walk with a nil histogram — the
// exact code path a Config without Obs runs; compare against
// BenchmarkWalk100k (the no-obs baseline entry point).
func BenchmarkTraceOverhead(b *testing.B) {
	b.Run("disabled", func(b *testing.B) { benchWalkObs(b, nil) })
	b.Run("enabled", func(b *testing.B) {
		var h obs.Hist
		h.Name, h.Unit = "interaction_list_len", "count"
		benchWalkObs(b, &h)
	})
}
