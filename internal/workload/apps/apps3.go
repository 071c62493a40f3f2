package appbench

import (
	"fmt"

	"denovogpu/internal/mem"
	"denovogpu/internal/workload"
)

// ---------------------------------------------------------------------
// SRAD v2 (Rodinia): two kernels per iteration over an image — one
// computing a smoothing coefficient from the 4-neighborhood, one
// applying it. Integer arithmetic stands in for the float PDE update.

func srad() workload.Workload {
	const (
		n       = 192 // 2 arrays x 147 KB: exceeds the aggregate L1
		iters   = 2
		threads = n
	)
	size := n * n
	a := workload.NewArena()
	img := a.Words(size)
	coeff := a.Words(size)

	k1 := func(c *workload.Ctx) {
		y := c.TB
		if y >= n {
			return
		}
		cur := c.LoadStrideInto(nil, img+mem.Addr(4*(y*n)))
		out := make([]uint32, n)
		north, south := cur, cur
		if y > 0 {
			north = c.LoadStrideInto(nil, img+mem.Addr(4*((y-1)*n)))
		}
		if y < n-1 {
			south = c.LoadStrideInto(nil, img+mem.Addr(4*((y+1)*n)))
		}
		for t := range out {
			w, e := cur[t], cur[t]
			if t > 0 {
				w = cur[t-1]
			}
			if t < n-1 {
				e = cur[t+1]
			}
			g := absDiff(north[t], cur[t]) + absDiff(south[t], cur[t]) +
				absDiff(w, cur[t]) + absDiff(e, cur[t])
			out[t] = g/4 + 1
		}
		c.StoreStride(coeff+mem.Addr(4*(y*n)), out)
	}
	k2 := func(c *workload.Ctx) {
		y := c.TB
		if y >= n {
			return
		}
		cur := c.LoadStrideInto(nil, img+mem.Addr(4*(y*n)))
		cf := c.LoadStrideInto(nil, coeff+mem.Addr(4*(y*n)))
		southC := cf
		if y < n-1 {
			southC = c.LoadStrideInto(nil, coeff+mem.Addr(4*((y+1)*n)))
		}
		out := make([]uint32, n)
		for t := range out {
			e := cf[t]
			if t < n-1 {
				e = cf[t+1]
			}
			out[t] = cur[t] + (cf[t]+e+southC[t])/8
		}
		c.StoreStride(img+mem.Addr(4*(y*n)), out)
	}

	imgV := seq(size, 43)

	return workload.Workload{
		Name:     "SRAD",
		Input:    fmt.Sprintf("%dx%d matrix", n, n),
		Category: workload.NoSync,
		Host: func(h workload.Host) {
			h.WriteWords(img, imgV)
			for it := 0; it < iters; it++ {
				h.Launch(k1, n, threads)
				h.Launch(k2, n, threads)
			}
		},
		Verify: func(h workload.Host) error {
			cur := append([]uint32(nil), imgV...)
			cf := make([]uint32, size)
			for it := 0; it < iters; it++ {
				for y := 0; y < n; y++ {
					for x := 0; x < n; x++ {
						c0 := cur[y*n+x]
						nb := func(yy, xx int) uint32 {
							if yy < 0 || yy >= n || xx < 0 || xx >= n {
								return c0
							}
							return cur[yy*n+xx]
						}
						g := absDiff(nb(y-1, x), c0) + absDiff(nb(y+1, x), c0) +
							absDiff(nb(y, x-1), c0) + absDiff(nb(y, x+1), c0)
						cf[y*n+x] = g/4 + 1
					}
				}
				next := make([]uint32, size)
				for y := 0; y < n; y++ {
					for x := 0; x < n; x++ {
						e := cf[y*n+x]
						if x < n-1 {
							e = cf[y*n+x+1]
						}
						s := cf[y*n+x]
						if y < n-1 {
							s = cf[(y+1)*n+x]
						}
						next[y*n+x] = cur[y*n+x] + (cf[y*n+x]+e+s)/8
					}
				}
				cur = next
			}
			return checkSlice(h, "SRAD", img, cur)
		},
	}
}

// ---------------------------------------------------------------------
// LAVA — LavaMD (Rodinia): particles in boxes compute pairwise forces
// against neighbor-box particles, accumulating into per-particle force
// vectors. Each thread rewrites its four force words once per
// interaction — hundreds of writes to the same words interleaved with
// enough distinct accumulator words per CU (4 x threads > 256) to
// overflow the store buffer. Under GPU coherence the overflow defeats
// writethrough coalescing (each accumulation writes through
// separately); under DeNovo the first write registers the word and all
// subsequent writes hit — the paper's Figure 2 LavaMD effect.

func lava() workload.Workload {
	const (
		boxes     = 8 // 2x2x2 (Table 4)
		particles = 96
		sample    = 24 // interactions sampled per neighbor box
		threads   = particles
		boxWork   = 200 // compute cycles per neighbor box (pairwise force math)
	)
	a := workload.NewArena()
	pos := a.Words(boxes * particles * 4)   // x, y, z, q per particle
	force := a.Words(boxes * particles * 4) // fx, fy, fz, fw per particle

	kernel := func(c *workload.Ctx) {
		box := c.TB
		if box >= boxes {
			return
		}
		myBase := force + mem.Addr(4*(box*particles*4))
		// Load own particles' x components once.
		px := c.LoadInto(nil, stride4(pos+mem.Addr(4*(box*particles*4)), 0, particles))
		fx := make([]uint32, particles)
		fy := make([]uint32, particles)
		fz := make([]uint32, particles)
		fw := make([]uint32, particles)
		for nb := 0; nb < boxes; nb++ {
			// Pairwise force math for one neighbor box: partial sums
			// accumulate in registers (as the CUDA kernel does) ...
			for j := 0; j < sample; j++ {
				other := c.Load(pos + mem.Addr(4*((nb*particles+j)*4))) // broadcast
				for t := 0; t < particles; t++ {
					d := absDiff(px[t], other)
					fx[t] += d
					fy[t] += d >> 1
					fz[t] += d >> 2
					fw[t] += 1
				}
				c.Compute(boxWork / sample)
			}
			// ... and the force vector is written back to memory once
			// per neighbor box: the same 4 x particles accumulator words
			// are rewritten `boxes` times, and 4 x particles exceeds the
			// 256-entry store buffer, so under GPU coherence each
			// rewrite goes through as its own word writethrough (the
			// paper's LavaMD observation). DeNovo registers the words
			// on the first box and hits thereafter.
			c.StoreV(stride4(myBase, 0, particles), fx)
			c.StoreV(stride4(myBase, 1, particles), fy)
			c.StoreV(stride4(myBase, 2, particles), fz)
			c.StoreV(stride4(myBase, 3, particles), fw)
		}
	}

	posV := seq(boxes*particles*4, 47)

	return workload.Workload{
		Name:     "LAVA",
		Input:    "2x2x2 boxes",
		Category: workload.NoSync,
		Host: func(h workload.Host) {
			h.WriteWords(pos, posV)
			h.SetReadOnly(pos, pos+mem.Addr(4*boxes*particles*4))
			h.Launch(kernel, boxes, threads)
		},
		Verify: func(h workload.Host) error {
			ref := make([]uint32, boxes*particles*4)
			for box := 0; box < boxes; box++ {
				for t := 0; t < particles; t++ {
					var fx, fy, fz, fw uint32
					p := posV[(box*particles+t)*4]
					for nb := 0; nb < boxes; nb++ {
						for j := 0; j < sample; j++ {
							d := absDiff(p, posV[(nb*particles+j)*4])
							fx += d
							fy += d >> 1
							fz += d >> 2
							fw++
						}
					}
					base := (box*particles + t) * 4
					ref[base], ref[base+1], ref[base+2], ref[base+3] = fx, fy, fz, fw
				}
			}
			return checkSlice(h, "LAVA", force, ref)
		},
	}
}

// stride4 returns per-thread addresses for component comp of an
// array-of-4-vectors layout.
func stride4(base mem.Addr, comp, n int) []mem.Addr {
	addrs := make([]mem.Addr, n)
	for t := range addrs {
		addrs[t] = base + mem.Addr(4*(t*4+comp))
	}
	return addrs
}

func init() {
	workload.Register(srad())
	workload.Register(lava())
}
