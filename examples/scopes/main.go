// Scopes contrasts the consistency models on the same program: a
// per-CU lock protecting per-CU data, annotated with local scope. Under
// HRF (GH, DH) the annotation keeps every lock operation in the L1;
// under DRF (GD, DD) the annotation is ignored and every lock operation
// is globally ordered. The program is identical and verified in all
// cases — only the cost changes, which is the paper's central
// programmability argument: scopes are a performance annotation that a
// DRF machine can safely ignore, not a correctness obligation.
//
//	go run ./examples/scopes
package main

import (
	"fmt"
	"log"

	"denovogpu"
)

const (
	iters   = 60
	threads = 32
)

func main() {
	lockBase := denovogpu.Addr(0x10_0000)
	dataBase := denovogpu.Addr(0x20_0000)

	kernel := func(c *denovogpu.Ctx) {
		// Stride the per-CU variables so each CU's lock is homed at a
		// *different* node's L2 bank — otherwise every global atomic
		// would be a same-node access and the comparison would hide
		// GD's remote-synchronization cost.
		lock := lockBase + denovogpu.Addr(64*(5*c.CU+1))
		data := dataBase + denovogpu.Addr(64*(5*c.CU+1))
		for i := 0; i < iters; i++ {
			// Test-and-set: CAS 0 -> 1 until it returns 0, idling 8
			// cycles after each failed attempt.
			c.SpinAtomic(&denovogpu.Spin{
				Op: denovogpu.AtomicCAS, Addr: lock, Operand: 1, Operand2: 0, Scope: denovogpu.ScopeLocal,
				Cmp: denovogpu.CmpEq, Value: 0, Delay: 8,
			})
			c.Store(data, c.Load(data)+1)
			c.AtomicStore(lock, 0, denovogpu.ScopeLocal)
		}
	}
	verify := func(h denovogpu.Host) error {
		for cu := 0; cu < h.NumCUs(); cu++ {
			want := uint32(3 * iters) // 3 blocks per CU
			if got := h.Read(dataBase + denovogpu.Addr(64*(5*cu+1))); got != want {
				return fmt.Errorf("CU %d counter = %d, want %d", cu, got, want)
			}
		}
		return nil
	}

	fmt.Println("Per-CU locking with ScopeLocal annotations, all five configurations:")
	fmt.Printf("\n%-8s %12s %14s %16s %18s\n", "config", "cycles", "total flits", "atomic flits", "scope honored?")
	for _, cfg := range denovogpu.AllConfigs() {
		rep, err := denovogpu.RunKernel(cfg, "scopes", kernel, 45, threads, nil, verify)
		if err != nil {
			log.Fatal(err)
		}
		honored := "yes (HRF)"
		if cfg.Model == denovogpu.DRF {
			honored = "no (DRF: treated global)"
		}
		fmt.Printf("%-8s %12d %14d %16d   %s\n",
			rep.Config, rep.Cycles, rep.TotalFlits(), rep.Flits[3], honored)
	}
	fmt.Println("\nDeNovo under DRF (DD) needs no scope to stay fast: after the first")
	fmt.Println("access it owns the lock word, so 'global' synchronization already")
	fmt.Println("executes in the L1 — the paper's case against scoped models.")
}
