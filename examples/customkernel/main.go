// Customkernel shows how to write your own workload against the device
// API: a producer-consumer pipeline where stage-one blocks publish
// results under a flag (release store) and stage-two blocks consume
// them (acquire loads) — classic fine-grained synchronization that
// conventional GPU coherence supports poorly.
//
//	go run ./examples/customkernel
package main

import (
	"fmt"
	"log"

	"denovogpu"
)

const (
	nChunks = 30
	chunkSz = 64 // words per chunk
	threads = 32
)

func main() {
	var (
		data  = denovogpu.Addr(0x10_0000)
		flags = denovogpu.Addr(0x20_0000) // one flag line per chunk
		out   = denovogpu.Addr(0x30_0000)
	)
	flagAt := func(i int) denovogpu.Addr { return flags + denovogpu.Addr(64*i) }

	// Producers (even blocks) square chunk values and publish; consumers
	// (odd blocks) wait for their chunk's flag and sum it.
	kernel := func(c *denovogpu.Ctx) {
		chunk := c.TB / 2
		base := data + denovogpu.Addr(4*chunkSz*chunk)
		// One load buffer per block, reused by every load: a load
		// overwrites it, and a store copies it out at issue.
		buf := make([]uint32, c.Threads)
		if c.TB%2 == 0 { // producer
			for off := 0; off < chunkSz; off += threads {
				buf = c.LoadStrideInto(buf, base+denovogpu.Addr(4*off))
				for i := range buf {
					buf[i] = buf[i] * buf[i]
				}
				c.StoreStride(base+denovogpu.Addr(4*off), buf)
			}
			c.AtomicStore(flagAt(chunk), 1, denovogpu.ScopeGlobal) // release
			return
		}
		// Spin on the flag (acquire loads), 30 cycles of loop work per
		// failed attempt, until the producer has raised it.
		c.SpinAtomic(&denovogpu.Spin{
			Op: denovogpu.AtomicLoad, Addr: flagAt(chunk), Scope: denovogpu.ScopeGlobal,
			Cmp: denovogpu.CmpGe, Value: 1, Compute: 30,
		})
		var sum uint32
		for off := 0; off < chunkSz; off += threads {
			buf = c.LoadStrideInto(buf, base+denovogpu.Addr(4*off))
			for _, v := range buf {
				sum += v
			}
		}
		c.Store(out+denovogpu.Addr(4*chunk), sum)
	}

	setup := func(h denovogpu.Host) {
		for i := 0; i < nChunks*chunkSz; i++ {
			h.Write(data+denovogpu.Addr(4*i), uint32(i%100))
		}
	}
	verify := func(h denovogpu.Host) error {
		for chunk := 0; chunk < nChunks; chunk++ {
			var want uint32
			for i := 0; i < chunkSz; i++ {
				v := uint32((chunk*chunkSz + i) % 100)
				want += v * v
			}
			if got := h.Read(out + denovogpu.Addr(4*chunk)); got != want {
				return fmt.Errorf("chunk %d sum = %d, want %d", chunk, got, want)
			}
		}
		return nil
	}

	fmt.Println("Producer-consumer pipeline (custom kernel) under GD and DD:")
	for _, cfg := range []denovogpu.Config{denovogpu.GD(), denovogpu.DD()} {
		rep, err := denovogpu.RunKernel(cfg, "pipeline", kernel, 2*nChunks, threads, setup, verify)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-6s %10d cycles, %8.1f uJ, %9d flits (verified)\n",
			rep.Config, rep.Cycles, rep.TotalEnergyPJ()/1e6, rep.TotalFlits())
	}
	fmt.Println("\nThe consumer's acquire invalidates the whole L1 under GPU coherence,")
	fmt.Println("but spares owned (registered) words under DeNovo — so the producer's")
	fmt.Println("just-written chunk streams from the owner's L1 instead of the L2.")
}
