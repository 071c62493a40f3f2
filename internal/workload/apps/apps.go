// Package appbench implements the paper's ten traditional GPU
// applications (Table 4, top): Rodinia and Parboil kernels with no
// intra-kernel synchronization. They establish that DeNovo is a viable
// protocol for today's workloads (Figure 2: G* ≈ D*).
//
// The originals are CUDA applications; here each is a synthetic kernel
// that reproduces the original's *memory access pattern* — streaming,
// broadcast, tiled GEMM, stencils, wavefront dynamic programming, and
// LavaMD's repeated accumulator rewrites — over integer data so results
// verify exactly against host references. Input sizes are scaled down
// from Table 4 to keep simulations tractable; DESIGN.md documents the
// substitution. Every workload declares its genuinely read-only inputs
// via SetReadOnly, the program-level (hardware-agnostic) annotation the
// DD+RO configuration exploits.
package appbench

import (
	"fmt"

	"denovogpu/internal/mem"
	"denovogpu/internal/workload"
)

// checkSlice compares device memory to a reference.
func checkSlice(h workload.Host, name string, base mem.Addr, want []uint32) error {
	for i, w := range want {
		if got := h.Read(base + mem.Addr(4*i)); got != w {
			return fmt.Errorf("%s: word %d = %d, want %d", name, i, got, w)
		}
	}
	return nil
}

// seq returns 0..n-1 mixed by a cheap hash so data isn't trivially
// uniform.
func seq(n int, salt uint32) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		x := uint32(i)*2654435761 + salt
		x ^= x >> 15
		out[i] = x % 1000
	}
	return out
}

func min3(a, b, c uint32) uint32 {
	m := a
	if b < m {
		m = b
	}
	if c < m {
		m = c
	}
	return m
}

// ---------------------------------------------------------------------
// BP — Backprop (Rodinia). Two forward layers and a weight-update
// kernel: broadcast reads of the input vector, coalesced reads of
// transposed weights, and strided weight writes in the update.

func backprop() workload.Workload {
	const (
		ni      = 128  // input units
		nh      = 1024 // hidden units; the weight matrix is 512 KB
		threads = 64
	)
	a := workload.NewArena()
	in := a.Words(ni)
	w1 := a.Words(ni * nh) // transposed: w1[i*nh + j]
	hid := a.Words(nh)
	w2 := a.Words(nh) // one output unit's weights
	outW := a.Line()

	fwd1 := func(c *workload.Ctx) {
		jBase := c.TB * c.Threads
		if jBase >= nh {
			return
		}
		acc := make([]uint32, c.Threads)
		var wv []uint32
		for i := 0; i < ni; i++ {
			x := c.Load(in + mem.Addr(4*i)) // broadcast
			wv = c.LoadStrideInto(wv, w1+mem.Addr(4*(i*nh+jBase)))
			for t := range acc {
				acc[t] += x * wv[t]
			}
		}
		c.StoreStride(hid+mem.Addr(4*jBase), acc)
	}
	fwd2 := func(c *workload.Ctx) {
		// Parallel reduction substitute: each block sums a chunk into a
		// partial, block 0's thread 0 has the first chunk.
		jBase := c.TB * c.Threads
		if jBase >= nh {
			return
		}
		hv := c.LoadStrideInto(nil, hid+mem.Addr(4*jBase))
		wv := c.LoadStrideInto(nil, w2+mem.Addr(4*jBase))
		var sum uint32
		for t := range hv {
			sum += hv[t] * wv[t]
		}
		c.Store(outW+mem.Addr(4*c.TB), sum)
	}
	update := func(c *workload.Ctx) {
		jBase := c.TB * c.Threads
		if jBase >= nh {
			return
		}
		hv := c.LoadStrideInto(nil, hid+mem.Addr(4*jBase))
		var wv []uint32
		for i := 0; i < ni; i += 8 { // strided partial update
			x := c.Load(in + mem.Addr(4*i))
			base := w1 + mem.Addr(4*(i*nh+jBase))
			wv = c.LoadStrideInto(wv, base)
			for t := range wv {
				wv[t] += x * hv[t]
			}
			c.StoreStride(base, wv)
		}
	}

	inV := seq(ni, 1)
	w1V := seq(ni*nh, 2)
	w2V := seq(nh, 3)

	return workload.Workload{
		Name:     "BP",
		Input:    "32 KB",
		Category: workload.NoSync,
		Host: func(h workload.Host) {
			h.WriteWords(in, inV)
			h.WriteWords(w1, w1V)
			h.WriteWords(w2, w2V)
			h.SetReadOnly(in, in+mem.Addr(4*ni))
			h.Launch(fwd1, nh/threads, threads)
			h.Launch(fwd2, nh/threads, threads)
			h.Launch(update, nh/threads, threads)
		},
		Verify: func(h workload.Host) error {
			hidRef := make([]uint32, nh)
			for j := 0; j < nh; j++ {
				for i := 0; i < ni; i++ {
					hidRef[j] += inV[i] * w1V[i*nh+j]
				}
			}
			if err := checkSlice(h, "BP hidden", hid, hidRef); err != nil {
				return err
			}
			w1Ref := append([]uint32(nil), w1V...)
			for i := 0; i < ni; i += 8 {
				for j := 0; j < nh; j++ {
					w1Ref[i*nh+j] += inV[i] * hidRef[j]
				}
			}
			return checkSlice(h, "BP weights", w1, w1Ref)
		},
	}
}

// ---------------------------------------------------------------------
// PF — Pathfinder (Rodinia). Row-by-row dynamic programming over a
// wall grid: each row kernel reads the previous row (with neighbors)
// and the read-only wall, writing the next row.

func pathfinder() workload.Workload {
	const (
		cols    = 32768 // 10 x 32K matrix: 1.25 MB wall, rows of 128 KB
		rows    = 10
		threads = 64
	)
	a := workload.NewArena()
	wall := a.Words(cols * rows)
	buf0 := a.Words(cols)
	buf1 := a.Words(cols)

	rowKernel := func(row int) workload.Kernel {
		// Row 0 is seeded in buf1; odd rows read buf1 and write buf0.
		src, dst := buf0, buf1
		if row%2 == 1 {
			src, dst = buf1, buf0
		}
		return func(c *workload.Ctx) {
			base := c.TB * c.Threads
			if base >= cols {
				return
			}
			cur := c.LoadStrideInto(nil, src+mem.Addr(4*base))
			// Neighbors within the chunk come from cur; only the chunk
			// edges need extra (halo) loads.
			leftEdge, rightEdge := cur[0], cur[c.Threads-1]
			if base > 0 {
				leftEdge = c.Load(src + mem.Addr(4*(base-1)))
			}
			if base+c.Threads < cols {
				rightEdge = c.Load(src + mem.Addr(4*(base+c.Threads)))
			}
			wv := c.LoadStrideInto(nil, wall+mem.Addr(4*(row*cols+base)))
			out := make([]uint32, c.Threads)
			for t := range out {
				l, r := cur[t], cur[t]
				switch {
				case t > 0:
					l = cur[t-1]
				case base > 0:
					l = leftEdge
				}
				switch {
				case t < c.Threads-1:
					r = cur[t+1]
				case base+c.Threads < cols:
					r = rightEdge
				}
				out[t] = wv[t] + min3(l, cur[t], r)
			}
			c.StoreStride(dst+mem.Addr(4*base), out)
		}
	}

	wallV := seq(cols*rows, 7)

	return workload.Workload{
		Name:     "PF",
		Input:    fmt.Sprintf("%d x %dK matrix", rows, cols/1024),
		Category: workload.NoSync,
		Host: func(h workload.Host) {
			h.WriteWords(wall, wallV)
			h.WriteWords(buf1, wallV[:cols]) // row 0 seed
			h.SetReadOnly(wall, wall+mem.Addr(4*cols*rows))
			for r := 1; r < rows; r++ {
				h.Launch(rowKernel(r), cols/threads, threads)
			}
		},
		Verify: func(h workload.Host) error {
			ref := append([]uint32(nil), wallV[:cols]...)
			for r := 1; r < rows; r++ {
				next := make([]uint32, cols)
				for i := 0; i < cols; i++ {
					l, c2, rr := ref[i], ref[i], ref[i]
					if i > 0 {
						l = ref[i-1]
					}
					if i < cols-1 {
						rr = ref[i+1]
					}
					next[i] = wallV[r*cols+i] + min3(l, c2, rr)
				}
				ref = next
			}
			final := buf1 // dst of the last (even) row
			if (rows-1)%2 == 1 {
				final = buf0 // dst of the last (odd) row
			}
			return checkSlice(h, "PF", final, ref)
		},
	}
}

// ---------------------------------------------------------------------
// LUD — LU decomposition access pattern (Rodinia): per step k, a
// kernel updates the trailing submatrix from row k and column k
// (integer multiply-subtract stands in for the float arithmetic).

func lud() workload.Workload {
	const (
		n       = 128
		threads = 128
	)
	a := workload.NewArena()
	mat := a.Words(n * n)

	step := func(k int) workload.Kernel {
		return func(c *workload.Ctx) {
			i := k + 1 + c.TB // row index
			if i >= n {
				return
			}
			aik := c.Load(mat + mem.Addr(4*(i*n+k)))
			width := n - (k + 1)
			rowK := c.LoadInto(nil, c.StrideAddrs(mat+mem.Addr(4*(k*n+k+1)), 1)[:width])
			rowI := c.LoadInto(nil, c.StrideAddrs(mat+mem.Addr(4*(i*n+k+1)), 1)[:width])
			for t := range rowI {
				rowI[t] -= aik * rowK[t]
			}
			c.StoreV(c.StrideAddrs(mat+mem.Addr(4*(i*n+k+1)), 1)[:width], rowI)
		}
	}

	matV := seq(n*n, 11)

	return workload.Workload{
		Name:     "LUD",
		Input:    fmt.Sprintf("%dx%d matrix", n, n),
		Category: workload.NoSync,
		Host: func(h workload.Host) {
			h.WriteWords(mat, matV)
			for k := 0; k < n-1; k++ {
				h.Launch(step(k), n-1-k, threads)
			}
		},
		Verify: func(h workload.Host) error {
			ref := append([]uint32(nil), matV...)
			for k := 0; k < n-1; k++ {
				for i := k + 1; i < n; i++ {
					aik := ref[i*n+k]
					for j := k + 1; j < n; j++ {
						ref[i*n+j] -= aik * ref[k*n+j]
					}
				}
			}
			return checkSlice(h, "LUD", mat, ref)
		},
	}
}

// ---------------------------------------------------------------------
// NW — Needleman-Wunsch (Rodinia): wavefront dynamic programming; one
// kernel per anti-diagonal reads the two previous diagonals' cells and
// a read-only reference matrix.

func nw() workload.Workload {
	const (
		n       = 192
		threads = 32
		penalty = 1
	)
	a := workload.NewArena()
	score := a.Words((n + 1) * (n + 1))
	ref := a.Words(n * n)

	diag := func(d int) workload.Kernel { // d = i+j, cells with 1<=i,j<=n
		return func(c *workload.Ctx) {
			// Cells on the diagonal: i from max(1, d-n) .. min(n, d-1).
			lo := 1
			if d-n > lo {
				lo = d - n
			}
			hi := n
			if d-1 < hi {
				hi = d - 1
			}
			idx := lo + c.TB*c.Threads
			count := hi - idx + 1
			if count <= 0 {
				return
			}
			if count > c.Threads {
				count = c.Threads
			}
			addrAt := func(i, j int) mem.Addr { return score + mem.Addr(4*(i*(n+1)+j)) }
			up := make([]mem.Addr, count)
			left := make([]mem.Addr, count)
			dia := make([]mem.Addr, count)
			rv := make([]mem.Addr, count)
			outA := make([]mem.Addr, count)
			for t := 0; t < count; t++ {
				i := idx + t
				j := d - i
				up[t] = addrAt(i-1, j)
				left[t] = addrAt(i, j-1)
				dia[t] = addrAt(i-1, j-1)
				rv[t] = ref + mem.Addr(4*((i-1)*n+(j-1)))
				outA[t] = addrAt(i, j)
			}
			uv := c.LoadInto(nil, up)
			lv := c.LoadInto(nil, left)
			dv := c.LoadInto(nil, dia)
			refv := c.LoadInto(nil, rv)
			out := make([]uint32, count)
			for t := range out {
				m := dv[t] + refv[t]
				if v := uv[t] - penalty; v > m {
					m = v
				}
				if v := lv[t] - penalty; v > m {
					m = v
				}
				out[t] = m
			}
			c.StoreV(outA, out)
		}
	}

	refV := seq(n*n, 13)

	return workload.Workload{
		Name:     "NW",
		Input:    fmt.Sprintf("%dx%d matrix", n, n),
		Category: workload.NoSync,
		Host: func(h workload.Host) {
			h.WriteWords(ref, refV)
			for i := 0; i <= n; i++ {
				h.Write(score+mem.Addr(4*(i*(n+1))), uint32(1000-i))
				h.Write(score+mem.Addr(4*i), uint32(1000-i))
			}
			h.SetReadOnly(ref, ref+mem.Addr(4*n*n))
			for d := 2; d <= 2*n; d++ {
				cells := n - abs(d-n-1)
				tbs := (cells + threads - 1) / threads
				h.Launch(diag(d), tbs, threads)
			}
		},
		Verify: func(h workload.Host) error {
			sc := make([]uint32, (n+1)*(n+1))
			for i := 0; i <= n; i++ {
				sc[i*(n+1)] = uint32(1000 - i)
				sc[i] = uint32(1000 - i)
			}
			for i := 1; i <= n; i++ {
				for j := 1; j <= n; j++ {
					m := sc[(i-1)*(n+1)+j-1] + refV[(i-1)*n+j-1]
					if v := sc[(i-1)*(n+1)+j] - penalty; v > m {
						m = v
					}
					if v := sc[i*(n+1)+j-1] - penalty; v > m {
						m = v
					}
					sc[i*(n+1)+j] = m
				}
			}
			return checkSlice(h, "NW", score, sc)
		},
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func init() {
	workload.Register(backprop())
	workload.Register(pathfinder())
	workload.Register(lud())
	workload.Register(nw())
}
