package bench

import (
	"tiling3d/internal/cache"
	"tiling3d/internal/grid"
	"tiling3d/internal/stencil"
)

// The 2D experiment (Section 2.1's "tiling is usually not needed" for 2D
// stencils): untiled versus tiled 2D Jacobi miss rates across the
// boundary N = C_s/2. Below it — which covers every realistic 2D problem
// on even a small cache — tiling buys nothing, because the columns the
// stencil reuses already stay resident.

// TwoDPoint is one 2D measurement.
type TwoDPoint struct {
	N           int
	Orig, Tiled float64
}

// TwoDSeries simulates 2D Jacobi, untiled and tiled (tile height C_s/8,
// a generous conflict-safe choice), over sizes. Sizes simulate
// concurrently on the batched engine; each owns its grids and caches.
// The options carry the worker count and simulation engine settings.
func TwoDSeries(sizes []int, l1 cache.Config, opt Options) []TwoDPoint {
	cs := l1.Elems(grid.ElemSize)
	out := make([]TwoDPoint, len(sizes))
	forEachCtx(opt, len(sizes), func(i int) {
		n := sizes[i]
		run := func(tiled bool) float64 {
			arena := grid.NewArena()
			a := arena.Place2D(grid.New2D(n, n))
			b := arena.Place2D(grid.New2D(n, n))
			h := cache.MustHierarchy(l1) //lint:allow mustcheck -- l1 comes from validated Options
			opt.measure(opt.simSink(h), h.ResetStats, 1, func(sink cache.RunSink) {
				if tiled {
					stencil.Jacobi2DTiledRuns(a, b, sink, cs/8)
				} else {
					stencil.Jacobi2DOrigRuns(a, b, sink)
				}
			})
			return h.Level(0).Stats().MissRate()
		}
		out[i] = TwoDPoint{N: n, Orig: run(false), Tiled: run(true)}
	})
	return out
}
