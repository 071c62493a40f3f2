// Differential wall between the spin op and the kernel-side loop it
// replaces.
//
// Ctx.SpinAtomic lets the CU retry a failed attempt without switching
// back into the thread block. It must reproduce, event for event, the
// schedule of the hand-written loop "for !pass(atomic()) { Compute(c);
// Wait(d); backoff }". Each shape below is written twice, once with
// SpinAtomic and once with that explicit loop, and contended by every
// CU. The two runs' canonical reports must be byte-identical under
// every configuration. Reports hold only end-of-run totals, so the
// charge instants are checked as well, by sampling the CU's compute,
// wait and core-energy counters every cycle.
package machine_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"denovogpu"
	"denovogpu/internal/machine"
	"denovogpu/internal/obs"
	"denovogpu/internal/stats"
)

const (
	spinTBs     = 45 // three blocks on each of the 15 CUs
	spinThreads = 32

	spinLock  = denovogpu.Addr(0x10_0000)
	spinData  = denovogpu.Addr(0x20_0000)
	spinFlag  = denovogpu.Addr(0x30_0000)
	spinCount = denovogpu.Addr(0x40_0000)
	spinSem   = denovogpu.Addr(0x50_0000)
	spinOut   = denovogpu.Addr(0x60_0000)
	semSlots  = 2
)

// spinShape is one spin pattern: kernel(true) uses SpinAtomic,
// kernel(false) the explicit loop.
type spinShape struct {
	name   string
	kernel func(spin bool) denovogpu.Kernel
	setup  func(h denovogpu.Host)
	verify func(h denovogpu.Host) error
	// idle names the counter that shows attempts failed, so the shape
	// really exercised the retry path.
	idle string
}

func expectWord(h denovogpu.Host, a denovogpu.Addr, want uint32) error {
	if got := h.Read(a); got != want {
		return fmt.Errorf("word %#x = %d, want %d", uint64(a), got, want)
	}
	return nil
}

// casLockShape is a test-and-set mutex: CAS 0 -> 1 until it returns 0,
// around a read-modify-write of one word. perCU gives each CU its own
// locally scoped lock and counter instead of one global pair.
func casLockShape(name string, compute, delay int, backoff, perCU bool) spinShape {
	at := func(base denovogpu.Addr, c *denovogpu.Ctx) denovogpu.Addr {
		if perCU {
			return base + denovogpu.Addr(64*c.CU)
		}
		return base
	}
	scope := denovogpu.ScopeGlobal
	if perCU {
		scope = denovogpu.ScopeLocal
	}
	const iters = 2
	return spinShape{
		name: name,
		kernel: func(spin bool) denovogpu.Kernel {
			return func(c *denovogpu.Ctx) {
				lock, data := at(spinLock, c), at(spinData, c)
				for i := 0; i < iters; i++ {
					if spin {
						c.SpinAtomic(&denovogpu.Spin{
							Op: denovogpu.AtomicCAS, Addr: lock, Operand: 1, Scope: scope,
							Cmp: denovogpu.CmpEq, Value: 0, Compute: compute, Delay: delay, Backoff: backoff,
						})
					} else {
						d := delay
						for c.AtomicCAS(lock, 0, 1, scope) != 0 {
							c.Compute(compute)
							c.Wait(d)
							if backoff {
								d = min(d*2, 512)
							}
						}
					}
					c.Store(data, c.Load(data)+1)
					c.AtomicStore(lock, 0, scope)
				}
			}
		},
		verify: func(h denovogpu.Host) error {
			if !perCU {
				return expectWord(h, spinData, spinTBs*iters)
			}
			var sum uint32
			for cu := 0; cu < h.NumCUs(); cu++ {
				sum += h.Read(spinData + denovogpu.Addr(64*cu))
			}
			if sum != spinTBs*iters {
				return fmt.Errorf("per-CU counters sum to %d, want %d", sum, spinTBs*iters)
			}
			return nil
		},
		idle: "cu.wait_cycles",
	}
}

func spinShapes() []spinShape {
	return []spinShape{
		casLockShape("cas-backoff", 2, 8, true, false),
		casLockShape("cas-flat", 2, 8, false, false),
		casLockShape("sleep", 0, 50, false, true),
		{
			// Block 0 publishes a word under a flag; the rest spin on
			// the flag with loop work only, then copy the word out.
			name: "compute-only-ne",
			kernel: func(spin bool) denovogpu.Kernel {
				return func(c *denovogpu.Ctx) {
					if c.TB == 0 {
						c.Compute(200)
						c.Store(spinData, 7)
						c.AtomicStore(spinFlag, 1, denovogpu.ScopeGlobal)
						return
					}
					if spin {
						c.SpinAtomic(&denovogpu.Spin{
							Op: denovogpu.AtomicLoad, Addr: spinFlag, Scope: denovogpu.ScopeGlobal,
							Cmp: denovogpu.CmpGe, Value: 1, Compute: 30,
						})
					} else {
						for c.AtomicLoad(spinFlag, denovogpu.ScopeGlobal) == 0 {
							c.Compute(30)
						}
					}
					c.Store(spinOut+denovogpu.Addr(64*c.TB), c.Load(spinData))
				}
			},
			verify: func(h denovogpu.Host) error {
				for tb := 1; tb < spinTBs; tb++ {
					if err := expectWord(h, spinOut+denovogpu.Addr(64*tb), 7); err != nil {
						return err
					}
				}
				return nil
			},
			idle: "cu.compute_cycles",
		},
		{
			// A one-level counting barrier: arrive, staggered, then spin
			// until every block has.
			name: "load-gt-backoff",
			kernel: func(spin bool) denovogpu.Kernel {
				return func(c *denovogpu.Ctx) {
					c.Compute(20 * c.TB)
					c.AtomicAdd(spinCount, 1, denovogpu.ScopeGlobal)
					if spin {
						c.SpinAtomic(&denovogpu.Spin{
							Op: denovogpu.AtomicLoad, Addr: spinCount, Scope: denovogpu.ScopeGlobal,
							Cmp: denovogpu.CmpGt, Value: spinTBs - 1, Compute: 2, Delay: 8, Backoff: true,
						})
					} else {
						d := 8
						for c.AtomicLoad(spinCount, denovogpu.ScopeGlobal) <= spinTBs-1 {
							c.Compute(2)
							c.Wait(d)
							d = min(d*2, 512)
						}
					}
				}
			},
			verify: func(h denovogpu.Host) error { return expectWord(h, spinCount, spinTBs) },
			idle:   "cu.wait_cycles",
		},
		{
			// The semaphore: spin until enough slots are free, claim
			// them with a CAS, and on a lost CAS keep backing off from
			// where the spin left off.
			name: "semaphore",
			kernel: func(spin bool) denovogpu.Kernel {
				return func(c *denovogpu.Ctx) {
					n := uint32(1)
					if c.TB%3 == 0 {
						n = semSlots
					}
					for i := 0; i < 2; i++ {
						if spin {
							s := denovogpu.Spin{
								Op: denovogpu.AtomicLoad, Addr: spinSem, Scope: denovogpu.ScopeGlobal,
								Cmp: denovogpu.CmpGe, Value: n, Compute: 2, Delay: 8, Backoff: true,
							}
							for {
								v := c.SpinAtomic(&s)
								if c.AtomicCAS(spinSem, v, v-n, denovogpu.ScopeGlobal) == v {
									break
								}
								c.SpinPause(&s)
							}
						} else {
							d := 8
							for {
								v := c.AtomicLoad(spinSem, denovogpu.ScopeGlobal)
								if v >= n && c.AtomicCAS(spinSem, v, v-n, denovogpu.ScopeGlobal) == v {
									break
								}
								c.Compute(2)
								c.Wait(d)
								d = min(d*2, 512)
							}
						}
						out := spinOut + denovogpu.Addr(64*c.TB)
						c.Store(out, c.Load(out)+1)
						c.AtomicAdd(spinSem, n, denovogpu.ScopeGlobal)
					}
				}
			},
			setup:  func(h denovogpu.Host) { h.Write(spinSem, semSlots) },
			verify: func(h denovogpu.Host) error { return expectWord(h, spinSem, semSlots) },
			idle:   "cu.wait_cycles",
		},
	}
}

// TestSpinOpMatchesKernelLoop requires identical reports from the spin
// op and the explicit loop for every shape and configuration.
func TestSpinOpMatchesKernelLoop(t *testing.T) {
	for _, sh := range spinShapes() {
		for _, cfg := range denovogpu.AllConfigs() {
			t.Run(sh.name+"/"+cfg.Name(), func(t *testing.T) {
				run := func(spin bool) denovogpu.Report {
					rep, err := denovogpu.RunKernel(cfg, sh.name, sh.kernel(spin), spinTBs, spinThreads, sh.setup, sh.verify)
					if err != nil {
						t.Fatalf("spin op %v: %v", spin, err)
					}
					return rep
				}
				op, loop := run(true), run(false)
				if op.Stats.Get(sh.idle) == 0 {
					t.Fatalf("%s = 0: no attempt failed, the retry path went untested", sh.idle)
				}
				if got, want := mustCanonical(t, op), mustCanonical(t, loop); !bytes.Equal(got, want) {
					t.Errorf("spin op deviates from the kernel loop:\nspin op:\n%s\nloop:\n%s", got, want)
				}
			})
		}
	}
}

// TestSpinOpChargeInstants samples the counters a failed attempt
// charges every cycle, so charging the right amount at the wrong
// instant fails too.
func TestSpinOpChargeInstants(t *testing.T) {
	for _, sh := range spinShapes() {
		for _, name := range []string{"GD", "DD"} {
			cfg, err := denovogpu.ConfigByName(name)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(sh.name+"/"+name, func(t *testing.T) {
				op, loop := spinTimeline(t, cfg, sh, true), spinTimeline(t, cfg, sh, false)
				if !reflect.DeepEqual(op, loop) {
					t.Errorf("spin op charges at different instants than the kernel loop")
				}
			})
		}
	}
}

func spinTimeline(t *testing.T, cfg denovogpu.Config, sh spinShape, spin bool) [][]uint64 {
	t.Helper()
	m := machine.New(cfg)
	st := m.Stats()
	s := obs.NewSampler(1)
	for _, name := range []string{"cu.compute_cycles", "cu.wait_cycles", "cu.sync_instrs"} {
		s.AddGauge(name, func() uint64 { return st.Get(name) })
	}
	s.AddGauge("energy.core", func() uint64 { return uint64(st.EnergyPJ[stats.CompGPUCore]) })
	m.SetObservability(nil, s)
	if sh.setup != nil {
		sh.setup(m)
	}
	m.Launch(sh.kernel(spin), spinTBs, spinThreads)
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	if err := sh.verify(m); err != nil {
		t.Fatal(err)
	}
	return s.Series().Data
}
