package sim

import (
	"testing"
	"unsafe"
)

// Allocation regression guards: the calendar hot paths must stay at zero
// heap allocations per operation. PR 2 removed the Event allocations with
// the free-list; PR 3 removed the per-event closures with the typed path.
// A capturing closure sneaking back into Schedule/fire/Cancel or into the
// Timer re-arm shows up here as a CI failure instead of a silent perf
// regression in the k=8 campaigns.

// countTarget is a minimal Target whose events count firings and
// optionally re-arm themselves.
type countTarget struct {
	eng   *Engine
	fired int
	rearm Duration // re-schedule after this delay when nonzero
}

func (c *countTarget) OnEvent(Op, any) {
	c.fired++
	if c.rearm > 0 {
		c.eng.ScheduleTarget(c.rearm, c, 0, nil)
	}
}

func TestScheduleFireZeroAlloc(t *testing.T) {
	eng := NewEngine()
	fn := func() {} // built once: the closure itself is not under test
	// Warm the free-list.
	eng.Schedule(Microsecond, fn)
	eng.Run(MaxTime)
	allocs := testing.AllocsPerRun(1000, func() {
		eng.Schedule(Microsecond, fn)
		eng.Run(MaxTime)
	})
	if allocs != 0 {
		t.Fatalf("func-path schedule+fire allocates %v/op, want 0", allocs)
	}
}

func TestScheduleTargetFireZeroAlloc(t *testing.T) {
	eng := NewEngine()
	ct := &countTarget{eng: eng}
	eng.ScheduleTarget(Microsecond, ct, 0, nil)
	eng.Run(MaxTime)
	allocs := testing.AllocsPerRun(1000, func() {
		eng.ScheduleTarget(Microsecond, ct, 0, nil)
		eng.Run(MaxTime)
	})
	if allocs != 0 {
		t.Fatalf("typed schedule+fire allocates %v/op, want 0", allocs)
	}
	// A pointer-shaped arg must ride along without boxing allocations.
	arg := &struct{ x int }{}
	allocs = testing.AllocsPerRun(1000, func() {
		eng.ScheduleTarget(Microsecond, ct, 1, arg)
		eng.Run(MaxTime)
	})
	if allocs != 0 {
		t.Fatalf("typed schedule+fire with pointer arg allocates %v/op, want 0", allocs)
	}
	if ct.fired == 0 {
		t.Fatal("typed events did not fire")
	}
}

func TestCancelZeroAlloc(t *testing.T) {
	eng := NewEngine()
	fn := func() {}
	// Warm the free-list with two structs (keeper + victim).
	a, b := eng.Schedule(Microsecond, fn), eng.Schedule(Microsecond, fn)
	_, _ = a, b
	eng.Run(MaxTime)
	// Tail fast path: cancel the most recently scheduled event.
	allocs := testing.AllocsPerRun(1000, func() {
		h := eng.Schedule(Microsecond, fn)
		eng.Cancel(h)
	})
	if allocs != 0 {
		t.Fatalf("tail cancel allocates %v/op, want 0", allocs)
	}
	// Lazy path: cancel an event pinned off the tail slot by a later one,
	// then drain both — the full mark/drain/compact cycle must not
	// allocate either (the free-list absorbs the churn).
	allocs = testing.AllocsPerRun(1000, func() {
		victim := eng.Schedule(Microsecond, fn)
		eng.Schedule(2*Microsecond, fn)
		eng.Cancel(victim)
		eng.Run(MaxTime)
	})
	if allocs != 0 {
		t.Fatalf("lazy cancel+drain allocates %v/op, want 0", allocs)
	}
}

func TestTimerResetZeroAlloc(t *testing.T) {
	eng := NewEngine()
	tm := NewTimer(eng, func() {})
	tm.Reset(Microsecond)
	eng.Run(MaxTime)
	// Re-arm churn without firing: the RTO pattern (every ACK resets).
	allocs := testing.AllocsPerRun(1000, func() {
		tm.Reset(Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("timer re-arm allocates %v/op, want 0", allocs)
	}
	tm.Stop()
	// Arm-fire-rearm cycle.
	allocs = testing.AllocsPerRun(1000, func() {
		tm.Reset(Microsecond)
		eng.Run(MaxTime)
	})
	if allocs != 0 {
		t.Fatalf("timer arm+fire allocates %v/op, want 0", allocs)
	}
}

// TestEventIsOneCacheLine pins the Event layout: one 64-byte line, which
// closures reach through funcTarget instead of a field of their own.
func TestEventIsOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 64 {
		t.Fatalf("sizeof(Event) = %d, want 64", got)
	}
}

// TestClosureRingPathZeroAlloc covers closures on the dense ring path: a
// capturing func stored as a funcTarget must not allocate on schedule,
// fire, or either cancel path.
func TestClosureRingPathZeroAlloc(t *testing.T) {
	eng := NewEngine()
	park(eng, ringThreshold+1)
	n := 0
	fn := func() { n++ } // built once: the closure itself is not under test
	step := func() {
		eng.Schedule(Microsecond, fn)
		eng.Run(eng.Now() + Time(Microsecond))
	}
	step()
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("ring closure schedule+fire allocates %v/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		eng.Cancel(eng.Schedule(Microsecond, fn))
	}); allocs != 0 {
		t.Fatalf("ring tail cancel allocates %v/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		victim := eng.Schedule(Microsecond, fn)
		eng.Schedule(Microsecond, fn)
		eng.Cancel(victim)
		eng.Run(eng.Now() + Time(Microsecond))
	}); allocs != 0 {
		t.Fatalf("ring interior cancel+drain allocates %v/op, want 0", allocs)
	}
	if n == 0 {
		t.Fatal("closure events did not fire")
	}
}

// TestPileUpSpareReuseZeroAlloc drives one bucket far past its seed
// capacity and drains it, twice: the first pile-up allocates its larger
// arrays, and the spare pool must serve every later one.
func TestPileUpSpareReuseZeroAlloc(t *testing.T) {
	eng := NewEngine()
	park(eng, ringThreshold+1)
	fn := func() {}
	pileUp := func() {
		w := (eng.Now() + Time(4*wheelBucketWidth)) &^ wheelAlignMask
		for i := 0; i < 20*bucketSeedCap; i++ {
			eng.ScheduleAt(w+Time(i)%Time(wheelBucketWidth), fn)
		}
		eng.Run(w + Time(wheelBucketWidth))
	}
	pileUp()
	if allocs := testing.AllocsPerRun(10, pileUp); allocs != 0 {
		t.Fatalf("repeat pile-up allocates %v/op, want 0", allocs)
	}
}

// TestRingKeySeqGuard pins the loud failure for a seq that no longer fits
// the ring key.
func TestRingKeySeqGuard(t *testing.T) {
	eng := NewEngine()
	park(eng, ringThreshold+1)
	eng.nextSeq = 1 << keySeqBits
	defer func() {
		if recover() == nil {
			t.Fatal("ring insert with an oversized seq did not panic")
		}
	}()
	eng.Schedule(Microsecond, func() {})
}
