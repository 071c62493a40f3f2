package appbench

import (
	"fmt"

	"denovogpu/internal/mem"
	"denovogpu/internal/workload"
)

// ---------------------------------------------------------------------
// SGEMM (Parboil): tiled integer matrix multiply. Each block computes
// one row of C; A's row element is a broadcast load, B's row is
// coalesced. Scratchpad traffic models the tile staging of the
// original.

func sgemm() workload.Workload {
	const (
		n       = 128 // 3 matrices x 64 KB
		threads = 128
	)
	a := workload.NewArena()
	A := a.Words(n * n)
	B := a.Words(n * n)
	C := a.Words(n * n)

	kernel := func(c *workload.Ctx) {
		i := c.TB
		if i >= n {
			return
		}
		acc := make([]uint32, c.Threads)
		var bv []uint32
		for k := 0; k < n; k++ {
			av := c.Load(A + mem.Addr(4*(i*n+k))) // broadcast
			bv = c.LoadStrideInto(bv, B+mem.Addr(4*(k*n)))
			c.Scratch(1) // tile staging
			for t := range acc {
				acc[t] += av * bv[t]
			}
		}
		c.StoreStride(C+mem.Addr(4*(i*n)), acc)
	}

	av := seq(n*n, 17)
	bv := seq(n*n, 19)

	return workload.Workload{
		Name:     "SGEMM",
		Input:    "medium (scaled)",
		Category: workload.NoSync,
		Host: func(h workload.Host) {
			h.WriteWords(A, av)
			h.WriteWords(B, bv)
			h.SetReadOnly(A, A+mem.Addr(4*n*n))
			h.SetReadOnly(B, B+mem.Addr(4*n*n))
			h.Launch(kernel, n, threads)
		},
		Verify: func(h workload.Host) error {
			ref := make([]uint32, n*n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					var s uint32
					for k := 0; k < n; k++ {
						s += av[i*n+k] * bv[k*n+j]
					}
					ref[i*n+j] = s
				}
			}
			return checkSlice(h, "SGEMM", C, ref)
		},
	}
}

// ---------------------------------------------------------------------
// ST — Stencil (Parboil): 7-point 3D stencil, double buffered, several
// iterations (kernel launches).

func stencil() workload.Workload {
	const (
		nx, ny, nz = 128, 16, 4 // 2 buffers x 32 K cells = 64 KB each
		iters      = 4
		threads    = nx
	)
	size := nx * ny * nz
	a := workload.NewArena()
	buf := [2]mem.Addr{a.Words(size), a.Words(size)}
	at := func(x, y, z int) int { return (z*ny+y)*nx + x }

	step := func(it int) workload.Kernel {
		src, dst := buf[it%2], buf[1-it%2]
		return func(c *workload.Ctx) {
			y := c.TB % ny
			z := c.TB / ny
			// cur stays live through the update; each neighbor row is
			// consumed before the next loads into nb.
			cur := c.LoadStrideInto(nil, src+mem.Addr(4*at(0, y, z)))
			var nb []uint32
			row := func(yy, zz int) []uint32 {
				nb = c.LoadStrideInto(nb, src+mem.Addr(4*at(0, yy, zz)))
				return nb
			}
			sum := make([]uint32, nx)
			copy(sum, cur)
			if y > 0 {
				for t, v := range row(y-1, z) {
					sum[t] += v
				}
			}
			if y < ny-1 {
				for t, v := range row(y+1, z) {
					sum[t] += v
				}
			}
			if z > 0 {
				for t, v := range row(y, z-1) {
					sum[t] += v
				}
			}
			if z < nz-1 {
				for t, v := range row(y, z+1) {
					sum[t] += v
				}
			}
			for t := range sum {
				if t > 0 {
					sum[t] += cur[t-1]
				}
				if t < nx-1 {
					sum[t] += cur[t+1]
				}
			}
			c.StoreStride(dst+mem.Addr(4*at(0, y, z)), sum)
		}
	}

	init0 := seq(size, 23)

	return workload.Workload{
		Name:     "ST",
		Input:    fmt.Sprintf("%dx%dx%d, %d iters", nx, ny, nz, iters),
		Category: workload.NoSync,
		Host: func(h workload.Host) {
			h.WriteWords(buf[0], init0)
			for it := 0; it < iters; it++ {
				h.Launch(step(it), ny*nz, threads)
			}
		},
		Verify: func(h workload.Host) error {
			cur := append([]uint32(nil), init0...)
			for it := 0; it < iters; it++ {
				next := make([]uint32, size)
				for z := 0; z < nz; z++ {
					for y := 0; y < ny; y++ {
						for x := 0; x < nx; x++ {
							s := cur[at(x, y, z)]
							if x > 0 {
								s += cur[at(x-1, y, z)]
							}
							if x < nx-1 {
								s += cur[at(x+1, y, z)]
							}
							if y > 0 {
								s += cur[at(x, y-1, z)]
							}
							if y < ny-1 {
								s += cur[at(x, y+1, z)]
							}
							if z > 0 {
								s += cur[at(x, y, z-1)]
							}
							if z < nz-1 {
								s += cur[at(x, y, z+1)]
							}
							next[at(x, y, z)] = s
						}
					}
				}
				cur = next
			}
			return checkSlice(h, "ST", buf[iters%2], cur)
		},
	}
}

// ---------------------------------------------------------------------
// HS — Hotspot (Rodinia): 2D 5-point stencil over a temperature grid
// plus a read-only power grid.

func hotspot() workload.Workload {
	const (
		n       = 256 // power + 2 temperature buffers: 768 KB total
		iters   = 4
		threads = n
	)
	size := n * n
	a := workload.NewArena()
	power := a.Words(size)
	buf := [2]mem.Addr{a.Words(size), a.Words(size)}

	step := func(it int) workload.Kernel {
		src, dst := buf[it%2], buf[1-it%2]
		return func(c *workload.Ctx) {
			y := c.TB
			if y >= n {
				return
			}
			cur := c.LoadStrideInto(nil, src+mem.Addr(4*(y*n)))
			pw := c.LoadStrideInto(nil, power+mem.Addr(4*(y*n)))
			out := make([]uint32, n)
			copy(out, cur)
			// Each neighbor row is consumed before the next loads into nb.
			var nb []uint32
			if y > 0 {
				nb = c.LoadStrideInto(nb, src+mem.Addr(4*((y-1)*n)))
				for t, v := range nb {
					out[t] += v
				}
			}
			if y < n-1 {
				nb = c.LoadStrideInto(nb, src+mem.Addr(4*((y+1)*n)))
				for t, v := range nb {
					out[t] += v
				}
			}
			for t := range out {
				if t > 0 {
					out[t] += cur[t-1]
				}
				if t < n-1 {
					out[t] += cur[t+1]
				}
				out[t] = out[t]/4 + pw[t]
			}
			c.StoreStride(dst+mem.Addr(4*(y*n)), out)
		}
	}

	powerV := seq(size, 29)
	tempV := seq(size, 31)

	return workload.Workload{
		Name:     "HS",
		Input:    fmt.Sprintf("%dx%d matrix", n, n),
		Category: workload.NoSync,
		Host: func(h workload.Host) {
			h.WriteWords(power, powerV)
			h.WriteWords(buf[0], tempV)
			h.SetReadOnly(power, power+mem.Addr(4*size))
			for it := 0; it < iters; it++ {
				h.Launch(step(it), n, threads)
			}
		},
		Verify: func(h workload.Host) error {
			cur := append([]uint32(nil), tempV...)
			for it := 0; it < iters; it++ {
				next := make([]uint32, size)
				for y := 0; y < n; y++ {
					for x := 0; x < n; x++ {
						s := cur[y*n+x]
						if y > 0 {
							s += cur[(y-1)*n+x]
						}
						if y < n-1 {
							s += cur[(y+1)*n+x]
						}
						if x > 0 {
							s += cur[y*n+x-1]
						}
						if x < n-1 {
							s += cur[y*n+x+1]
						}
						next[y*n+x] = s/4 + powerV[y*n+x]
					}
				}
				cur = next
			}
			return checkSlice(h, "HS", buf[iters%2], cur)
		},
	}
}

// ---------------------------------------------------------------------
// NN — Nearest Neighbor (Rodinia): stream a large read-only record
// array, each thread tracking the minimum distance over its chunk —
// almost pure streaming reads with one word written per thread.

func nn() workload.Workload {
	const (
		records = 65536 // 512 KB of record data streams past every L1
		tbs     = 32
		threads = 64
		qlat    = 500
		qlng    = 500
	)
	a := workload.NewArena()
	lat := a.Words(records)
	lng := a.Words(records)
	out := a.Words(tbs * threads)

	perThread := records / (tbs * threads)
	kernel := func(c *workload.Ctx) {
		base := c.TB * c.Threads * perThread
		best := make([]uint32, c.Threads)
		for i := range best {
			best[i] = ^uint32(0)
		}
		var la, lo []uint32
		for k := 0; k < perThread; k++ {
			off := mem.Addr(4 * (base + k*c.Threads))
			la = c.LoadStrideInto(la, lat+off)
			lo = c.LoadStrideInto(lo, lng+off)
			for t := range best {
				d := absDiff(la[t], qlat) + absDiff(lo[t], qlng)
				if d < best[t] {
					best[t] = d
				}
			}
		}
		c.StoreStride(out+mem.Addr(4*c.TB*c.Threads), best)
	}

	latV := seq(records, 37)
	lngV := seq(records, 41)

	return workload.Workload{
		Name:     "NN",
		Input:    fmt.Sprintf("%dK records", records/1024),
		Category: workload.NoSync,
		Host: func(h workload.Host) {
			h.WriteWords(lat, latV)
			h.WriteWords(lng, lngV)
			h.SetReadOnly(lat, lat+mem.Addr(4*records))
			h.SetReadOnly(lng, lng+mem.Addr(4*records))
			h.Launch(kernel, tbs, threads)
		},
		Verify: func(h workload.Host) error {
			ref := make([]uint32, tbs*threads)
			for g := range ref {
				tb, t := g/threads, g%threads
				base := tb * threads * perThread
				best := ^uint32(0)
				for k := 0; k < perThread; k++ {
					i := base + k*threads + t
					d := absDiff(latV[i], qlat) + absDiff(lngV[i], qlng)
					if d < best {
						best = d
					}
				}
				ref[g] = best
			}
			return checkSlice(h, "NN", out, ref)
		},
	}
}

func absDiff(a, b uint32) uint32 {
	if a > b {
		return a - b
	}
	return b - a
}

func init() {
	workload.Register(sgemm())
	workload.Register(stencil())
	workload.Register(hotspot())
	workload.Register(nn())
}
