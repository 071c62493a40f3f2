package denovo

import (
	"strings"
	"testing"

	"denovogpu/internal/coherence"
	"denovogpu/internal/mem"
	"denovogpu/internal/testrig"
)

// The sanitizer tests below hand-corrupt controller state into the
// exact shapes the model checker's invariants forbid and verify that
// the armed controller refuses them. The release-path case is the
// mechanism of the lazy-sync registration overwrite bug (pinned in
// internal/litmus): before the fix, a release could batch a delayed
// slot whose word already had a sync registration in flight,
// overwriting the transaction and losing its waiters.

func lazyCtl(r *testrig.Rig) *Controller {
	c := newCtl(r, 0, Options{LazyWrites: true})
	c.EnableInvariantChecks()
	return c
}

// delayedAndRegistering buffers w as a delayed slot and then, as the
// bug did, marks a registration in flight for it too.
func delayedAndRegistering(c *Controller, w mem.Word) {
	c.sb.Insert(w, 1)
	s := c.lines.upsert(w.LineOf())
	c.lines.delay(s, mem.Bit(w.Index()))
	s.reg |= mem.Bit(w.Index())
}

func TestSanitizerKickOverRegistrationPanics(t *testing.T) {
	r := testrig.New()
	c := lazyCtl(r)
	delayedAndRegistering(c, mem.Addr(0x40).WordOf())
	defer func() {
		if rec := recover(); rec == nil {
			t.Fatal("kicking a delayed word with a registration in flight did not panic")
		} else if !strings.Contains(rec.(string), "lazy-reg-exclusive") {
			t.Fatalf("panic %q does not name the invariant", rec)
		}
	}()
	c.kickOldestLazy()
}

func TestSanitizerReleaseOverRegistrationPanics(t *testing.T) {
	r := testrig.New()
	c := lazyCtl(r)
	delayedAndRegistering(c, mem.Addr(0x40).WordOf())
	defer func() {
		if rec := recover(); rec == nil {
			t.Fatal("release batching a delayed word with a registration in flight did not panic")
		} else if !strings.Contains(rec.(string), "lazy-reg-exclusive") {
			t.Fatalf("panic %q does not name the invariant", rec)
		}
	}()
	c.Release(coherence.ScopeGlobal, func() {})
}

// quiescedState builds, on a lazy controller, one line in each kind of
// transaction state the quiesced-state suite inspects, all consistent:
// a delayed slot, a data write and a sync operation registering (the
// latter with a deferred forward and read), a frameless owned word, a
// victim copy and an open read transaction. Lines are returned by role.
func quiescedState(t *testing.T, c *Controller) map[string]mem.Line {
	t.Helper()
	roles := map[string]mem.Line{}
	for i, role := range []string{"lazy", "data", "sync", "own", "victim", "read", "spare"} {
		roles[role] = mem.Line(0x100 + 0x40*i)
	}
	w := func(role string) mem.Word { return roles[role].Word(3) }
	b := mem.Bit(3)
	c.sb.Insert(w("lazy"), 1)
	c.lines.delay(c.lines.upsert(roles["lazy"]), b)
	c.sb.Insert(w("data"), 2)
	c.lines.register(c.lines.upsert(roles["data"]), b, b)
	s := c.lines.upsert(roles["sync"])
	c.lines.register(s, b, 0)
	c.lines.addSync(s, 3, syncOp{op: coherence.AtomicAdd, operand: 1})
	c.lines.deferFwd(s, 3, &coherence.Msg{})
	c.lines.deferRead(s, 3, &coherence.Msg{})
	c.lines.setOwn(c.lines.upsert(roles["own"]), 3, 4)
	c.victim.Put(w("victim"), 5)
	c.lines.victimPut(c.lines.upsert(roles["victim"]), b)
	c.nextID++
	c.reads.Put(c.nextID, &readTxn{line: roles["read"]})
	c.lines.openRead(c.lines.upsert(roles["read"]), c.nextID)
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("consistent state: %v", err)
	}
	return roles
}

// TestSanitizerQuiesceChecks hand-corrupts a consistent quiesced
// state in one way per detector of CheckInvariants and its line-table
// check, and requires each to be reported by that detector's message.
// Every detector is needed: with any one disabled, its case fails.
func TestSanitizerQuiesceChecks(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		corrupt    func(c *Controller, lines map[string]mem.Line)
	}{
		{"empty entry", "empty entry", func(c *Controller, l map[string]mem.Line) {
			c.lines.upsert(l["spare"])
		}},
		{"data mark without registration", "waiting on registrations not in flight", func(c *Controller, l map[string]mem.Line) {
			c.lines.ptr(l["lazy"]).data |= mem.Bit(3)
		}},
		{"victim flag without copy", "without victim copies", func(c *Controller, l map[string]mem.Line) {
			c.lines.ptr(l["own"]).vServed |= mem.Bit(3)
		}},
		{"delayed and registering", "lazy-reg-exclusive", func(c *Controller, l map[string]mem.Line) {
			c.lines.ptr(l["lazy"]).reg |= mem.Bit(3)
		}},
		{"record without need", "holds record", func(c *Controller, l map[string]mem.Line) {
			c.lines.record(c.lines.ptr(l["read"]))
		}},
		{"record shared by two lines", "held twice", func(c *Controller, l map[string]mem.Line) {
			s := c.lines.upsert(l["spare"])
			c.lines.setOwn(s, 3, 9)
			s.rec = c.lines.ptr(l["own"]).rec
		}},
		{"payload without mask", "record holds", func(c *Controller, l map[string]mem.Line) {
			c.lines.recs[c.lines.ptr(l["sync"]).rec-1].fwd[3] = nil
		}},
		{"word count off", "masks count", func(c *Controller, l map[string]mem.Line) {
			c.lines.regWords++
		}},
		{"held record freed", "frees record", func(c *Controller, l map[string]mem.Line) {
			c.lines.free = append(c.lines.free, c.lines.ptr(l["own"]).rec-1)
		}},
		{"free record holds a message", "still holds", func(c *Controller, l map[string]mem.Line) {
			c.lines.recs = append(c.lines.recs, lineRec{})
			c.lines.recs[len(c.lines.recs)-1].fwd[0] = &coherence.Msg{}
			c.lines.free = append(c.lines.free, int32(len(c.lines.recs)-1))
		}},
		{"record leak", "record leak", func(c *Controller, l map[string]mem.Line) {
			c.lines.recs = append(c.lines.recs, lineRec{})
		}},
		{"delayed slot not buffered", "lazy-orphan", func(c *Controller, l map[string]mem.Line) {
			c.lines.delay(c.lines.upsert(l["spare"]), mem.Bit(3))
		}},
		{"buffered write unowned", "sb-unowned", func(c *Controller, l map[string]mem.Line) {
			c.sb.Insert(l["spare"].Word(3), 6)
		}},
		{"extra pin", "times for", func(c *Controller, l map[string]mem.Line) {
			c.lines.ptr(l["data"]).pins++
		}},
		{"stale read id", "names read", func(c *Controller, l map[string]mem.Line) {
			c.lines.ptr(l["read"]).read = 999
		}},
		{"read without entry", "reads of", func(c *Controller, l map[string]mem.Line) {
			c.reads.Put(999, &readTxn{line: l["spare"]})
		}},
		{"victim mark without copy", "lacks", func(c *Controller, l map[string]mem.Line) {
			c.lines.victimPut(c.lines.ptr(l["own"]), mem.Bit(5))
		}},
		{"victim copy without mark", "values but", func(c *Controller, l map[string]mem.Line) {
			c.victim.Put(l["spare"].Word(3), 7)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := lazyCtl(testrig.New())
			tc.corrupt(c, quiescedState(t, c))
			if err := c.CheckInvariants(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
