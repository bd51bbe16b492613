package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// park schedules n no-op far-future events so the calendar stays above
// ringThreshold and subsequent near-future inserts take the ring path; the
// returned horizon is safely before any parked event fires.
func park(eng *Engine, n int) Time {
	for i := 0; i < n; i++ {
		eng.Schedule(Second, func() {})
	}
	return eng.Now().Add(Millisecond)
}

// TestWheelBucketBoundary pins event placement at exact bucket edges: an
// event at now+wheelSpan-1 is the last ring-eligible instant, one at
// now+wheelSpan must take the overflow heap, and events on the same bucket
// boundary fire in schedule (seq) order.
func TestWheelBucketBoundary(t *testing.T) {
	eng := NewEngine()
	horizon := park(eng, ringThreshold+1)

	w := wheelBucketWidth // one bucket of time
	var order []int
	note := func(id int) func() { return func() { order = append(order, id) } }

	// Two events on the exact same bucket-boundary instant, scheduled out
	// of id order relative to a mid-bucket neighbour.
	eng.Schedule(2*w, note(2))
	hEdge := eng.Schedule(w, note(0))
	eng.Schedule(w, note(1))     // same instant, later seq
	eng.Schedule(2*w-1, note(3)) // last instant of the bucket before note(2)'s
	if hEdge.ev.slot == overflowSlot {
		t.Fatal("near-future boundary event routed to overflow, want ring bucket")
	}

	// Ring/overflow split at the horizon: span-1 is ring, span is overflow.
	hIn := eng.Schedule(Duration(wheelSpan)-1, func() {})
	hOut := eng.Schedule(Duration(wheelSpan), func() {})
	if hIn.ev.slot == overflowSlot {
		t.Fatalf("event at span-1 routed to overflow (slot %d), want ring", hIn.ev.slot)
	}
	if hOut.ev.slot != overflowSlot {
		t.Fatalf("event at span routed to ring bucket %d, want overflow", hOut.ev.slot)
	}

	eng.Run(horizon)
	want := []int{0, 1, 3, 2} // time order; ties broken by schedule order
	if len(order) != len(want) {
		t.Fatalf("fired %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("pop order %v, want %v", order, want)
		}
	}
}

// TestWheelOverflowPromotion drives the clock toward a far-future event
// with a chain of near-future inserts and checks the event is promoted from
// the overflow heap into the ring (and still fires exactly on time).
func TestWheelOverflowPromotion(t *testing.T) {
	eng := NewEngine()
	park(eng, ringThreshold+1)

	const farDelay = Duration(3 * wheelSpan / 2)
	farAt := eng.Now().Add(farDelay)
	farFired := false
	hFar := eng.Schedule(farDelay, func() {
		if eng.Now() != farAt {
			t.Errorf("far event fired at %v, want %v", eng.Now(), farAt)
		}
		farFired = true
	})
	if hFar.ev.slot != overflowSlot {
		t.Fatal("far-future event not in overflow heap")
	}

	// A self-rescheduling chain walks the clock past the promotion point;
	// each dense-mode insert re-anchors the wheel when the clock enters a
	// fresh bucket.
	var step func()
	step = func() {
		if eng.Now() < farAt+Time(Microsecond) {
			eng.Schedule(Microsecond, step)
		}
	}
	eng.Schedule(Microsecond, step)
	eng.Run(farAt + Time(10*Microsecond))

	if !farFired {
		t.Fatal("far-future event never fired")
	}
	if eng.Promoted() == 0 {
		t.Fatal("no overflow events were promoted into the ring")
	}
	if hFar.Pending() {
		t.Fatal("fired event still pending")
	}
}

// TestCancelRescheduleAcrossSplit moves one logical timer back and forth
// across the ring/overflow split — schedule near, cancel, schedule far,
// cancel, schedule near again — and checks only the final arming fires.
func TestCancelRescheduleAcrossSplit(t *testing.T) {
	eng := NewEngine()
	horizon := park(eng, ringThreshold+1)

	h1 := eng.Schedule(10*Microsecond, func() { t.Error("cancelled ring event fired") })
	if h1.ev.slot == overflowSlot {
		t.Fatal("near event not in ring")
	}
	eng.Cancel(h1)

	h2 := eng.Schedule(2*Duration(wheelSpan), func() { t.Error("cancelled overflow event fired") })
	if h2.ev.slot != overflowSlot {
		t.Fatal("far event not in overflow")
	}
	eng.Cancel(h2)

	fired := false
	h3 := eng.Schedule(20*Microsecond, func() { fired = true })
	if h3.ev.slot == overflowSlot {
		t.Fatal("re-scheduled near event not in ring")
	}
	if got := eng.Pending(); got != ringThreshold+1+1 {
		t.Fatalf("Pending = %d, want %d", got, ringThreshold+2)
	}
	eng.Run(horizon)
	if !fired {
		t.Fatal("final arming did not fire")
	}

	// The same dance through a Timer (the transport RTO pattern).
	ticks := 0
	tm := NewTimer(eng, func() { ticks++ })
	tm.Reset(10 * Microsecond)
	tm.Reset(2 * Duration(wheelSpan)) // implicit cancel, re-arm in overflow
	tm.Reset(30 * Microsecond)        // back into the ring
	eng.Run(eng.Now() + Time(Millisecond))
	if ticks != 1 {
		t.Fatalf("timer fired %d times across the split, want 1", ticks)
	}
}

// refEvent is one scheduled event in the differential reference model.
type refEvent struct {
	at       Time
	id       int
	canceled bool
}

// diffModel schedules onto an Engine and mirrors every operation in a
// reference model whose pop order is the live events stable-sorted by
// time — the (time, seq) order a single global heap produces, since
// insertion order is seq order.
type diffModel struct {
	eng   *Engine
	ref   []refEvent // insertion (seq) order; ids index it
	fired []int
}

// at schedules an event at absolute time t that records its firing and
// then runs then (when non-nil).
func (m *diffModel) at(t Time, then func()) (Handle, int) {
	id := len(m.ref)
	m.ref = append(m.ref, refEvent{at: t, id: id})
	h := m.eng.ScheduleAt(t, func() {
		m.fired = append(m.fired, id)
		if then != nil {
			then()
		}
	})
	return h, id
}

// cancel cancels event id through its handle. Every caller cancels an
// event that has not fired yet, so a handle that is not pending means the
// engine handed back a stale one, and the test fails.
func (m *diffModel) cancel(t *testing.T, h Handle, id int) {
	t.Helper()
	if !h.Pending() {
		t.Fatalf("cancel of event %d: handle not pending", id)
	}
	m.ref[id].canceled = true
	m.eng.Cancel(h)
}

// check drains the engine and compares its pop order with the model's.
func (m *diffModel) check(t *testing.T) {
	t.Helper()
	m.eng.Run(MaxTime)
	live := make([]refEvent, 0, len(m.ref))
	for _, r := range m.ref {
		if !r.canceled {
			live = append(live, r)
		}
	}
	sort.SliceStable(live, func(i, j int) bool { return live[i].at < live[j].at })
	if len(m.fired) != len(live) {
		t.Fatalf("fired %d events, reference expects %d", len(m.fired), len(live))
	}
	for i, r := range live {
		if m.fired[i] != r.id {
			t.Fatalf("pop order diverges at %d: got id %d, reference %d", i, m.fired[i], r.id)
		}
	}
	if m.eng.Pending() != 0 {
		t.Fatalf("Pending = %d after full drain", m.eng.Pending())
	}
}

// TestWheelHeapDifferential pops the calendar against the reference model
// under five workloads: a randomized schedule/cancel mix straddling the
// ring horizon, the measured fabric bucket shape, a pile-up past the
// insertion-sort cutoff, a promotion into the bucket the cursor is
// draining, and tail cancels at the drain cursor. Any divergence in pop
// order fails.
func TestWheelHeapDifferential(t *testing.T) {
	t.Run("random", diffRandom)
	t.Run("fabric", diffFabric)
	t.Run("pileup", diffPileUp)
	t.Run("promote-into-cursor", diffPromoteIntoCursor)
	t.Run("cancel-at-cursor", diffCancelAtCursor)
}

// diffRandom is a few thousand schedule/cancel operations with delays
// straddling the ring horizon, run to random horizons between batches.
func diffRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20130612)) // fixed seed: deterministic
	m := &diffModel{eng: NewEngine()}
	eng := m.eng

	for round := 0; round < 30; round++ {
		// Schedule a batch with delays covering same-bucket collisions, the
		// ring horizon, the exact split boundary, deep overflow, and exact
		// same-tick repeats — (time, seq) ties inside one bucket, which
		// only the key's seq field can order correctly.
		n := 20 + rng.Intn(120)
		handles := make([]Handle, n)
		ids := make([]int, n)
		delays := make([]Duration, n)
		for i := 0; i < n; i++ {
			var d Duration
			switch rng.Intn(5) {
			case 0:
				d = Duration(rng.Int63n(4 * int64(wheelBucketWidth)))
			case 1:
				d = Duration(rng.Int63n(int64(wheelSpan)))
			case 2:
				d = Duration(wheelSpan) + Duration(rng.Int63n(int64(wheelSpan)))
			case 3:
				d = Duration(int64(wheelSpan) + rng.Int63n(10)*int64(wheelSpan)/2 - 5)
				if d < 0 {
					d = 0
				}
			case 4:
				// Exact repeat of an earlier delay in this batch: the same
				// instant, so the same bucket and a pure seq tie.
				if i > 0 {
					d = delays[rng.Intn(i)]
				}
			}
			handles[i], ids[i] = m.at(eng.Now().Add(d), nil)
			delays[i] = d
		}
		// Cancel ~1/4 of this batch after the fact, and reschedule half of
		// the cancelled deadlines at the same instant — cancel-then-
		// reschedule landing in the same bucket, where the corpse and its
		// replacement coexist until the drain reclaims one and fires the
		// other.
		for i := 0; i < n; i++ {
			if rng.Intn(4) == 0 {
				m.cancel(t, handles[i], ids[i])
				if rng.Intn(2) == 0 {
					m.at(eng.Now().Add(delays[i]), nil)
				}
			}
		}
		// Run to a random horizon so batches interleave across rounds.
		horizon := eng.Now() + Time(rng.Int63n(2*int64(wheelSpan)))
		eng.Run(horizon)
		if eng.Now() < horizon {
			t.Fatalf("round %d: clock %v behind horizon %v", round, eng.Now(), horizon)
		}
	}
	m.check(t)
}

// diffFabric is the measured bucket shape of a dense fat-tree cell: two
// links' event streams, each monotone in time at 80 ns multiples of a
// shared origin (so same-instant ties within and across streams are
// common), appended interleaved in seq order. One stream's events each
// schedule a propagation hop 20 µs later, so appends keep landing in
// buckets ahead of the cursor while it drains.
func diffFabric(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	m := &diffModel{eng: NewEngine()}
	park(m.eng, ringThreshold+1)
	hop := func() { m.at(m.eng.Now().Add(20*Microsecond), nil) }
	ta := m.eng.Now() + Time(Microsecond)
	tb := ta
	for i := 0; i < 4000; i++ {
		ta += Time(80 * (1 + rng.Intn(3)))
		tb += Time(80 * rng.Intn(3)) // zero steps: ties within the stream
		m.at(ta, hop)
		m.at(tb, nil)
	}
	m.check(t)
}

// diffPileUp piles several times insertionSortMax events into one bucket at
// random offsets and drains it, with interior cancels and mid-drain
// appends into the bucket being drained: every pile-up event schedules
// one more near the clock, which fills the part-drained bucket and moves
// it to a larger array. Later rounds climb the capacity ladder again
// through the spare pool.
func diffPileUp(t *testing.T) {
	rng := rand.New(rand.NewSource(2048))
	m := &diffModel{eng: NewEngine()}
	park(m.eng, ringThreshold+1)
	for round := 0; round < 4; round++ {
		w := (m.eng.Now() + Time(4*wheelBucketWidth)) &^ wheelAlignMask
		n := 4*insertionSortMax + rng.Intn(4*insertionSortMax)
		handles := make([]Handle, n)
		ids := make([]int, n)
		then := func() { m.at(m.eng.Now()+Time(rng.Intn(3)), nil) }
		for i := 0; i < n; i++ {
			handles[i], ids[i] = m.at(w+Time(rng.Int63n(int64(wheelBucketWidth))), then)
		}
		for i := 0; i < n; i += 1 + rng.Intn(9) {
			m.cancel(t, handles[i], ids[i])
		}
		m.eng.Run(w + Time(2*wheelBucketWidth))
	}
	m.check(t)
}

// diffPromoteIntoCursor lands overflow promotions in the bucket the drain
// cursor is part-way through. Events inserted while the calendar is
// sparse take the overflow heap even inside the horizon, so one window
// can hold ring events and unpromoted overflow events at once; the first
// dense insert after the cursor has popped the window's first event
// re-anchors and promotes the rest behind it.
func diffPromoteIntoCursor(t *testing.T) {
	m := &diffModel{eng: NewEngine()}
	eng := m.eng
	parked := make([]Handle, ringThreshold+1)
	for i := range parked {
		parked[i] = eng.Schedule(Second, func() {})
	}
	u := wheelBucketWidth / 16
	w := Time(100 * wheelBucketWidth)
	b := bucketOf(w)
	var hX Handle
	m.at(w.Add(u), func() {
		park(eng, ringThreshold+1) // dense again
		// The next window misses the run memo left on w, so this insert
		// re-anchors and promotes X and company into bucket b.
		m.at(eng.Now().Add(wheelBucketWidth), nil)
		bk := &eng.buckets[b]
		if hX.ev.slot != b || bk.next == 0 {
			t.Errorf("X in slot %d with cursor %d, want promoted into part-drained bucket %d", hX.ev.slot, bk.next, b)
		}
		m.at(w.Add(3*u), nil)  // before X
		m.at(w.Add(5*u), nil)  // X's instant, later seq
		m.at(w.Add(11*u), nil) // after X, past the ring-resident ones
	})
	hR, _ := m.at(w.Add(9*u), nil)
	m.at(w.Add(9*u), nil)
	if hR.ev.slot != b {
		t.Fatalf("dense insert in slot %d, want ring bucket %d", hR.ev.slot, b)
	}
	for _, h := range parked {
		eng.Cancel(h) // sparse again: the next inserts take the heap
	}
	hX, _ = m.at(w.Add(5*u), nil)
	m.at(w.Add(5*u), nil)
	m.at(w.Add(7*u), nil)
	m.at(w.Add(9*u), nil) // ties the ring-resident pair across containers
	if hX.ev.slot != overflowSlot {
		t.Fatalf("sparse insert in slot %d, want overflow", hX.ev.slot)
	}
	promoted := eng.Promoted()
	m.check(t)
	if eng.Promoted() == promoted {
		t.Fatal("no promotion happened")
	}
}

// diffCancelAtCursor cancels bucket tails while the cursor is mid-bucket.
// Even rounds cancel the sorted bucket's last entry, then the one left at
// the cursor, which empties and releases the bucket, and then schedule
// into the released bucket and tail-cancel an unsorted append. Odd rounds
// cancel only the last entry and append one that sorts before the entry
// still pending at the cursor.
func diffCancelAtCursor(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	m := &diffModel{eng: NewEngine()}
	eng := m.eng
	park(eng, ringThreshold+1)
	u := wheelBucketWidth / 16
	for round := 0; round < 50; round++ {
		w := (eng.Now() + Time(3*wheelBucketWidth)) &^ wheelAlignMask
		var hB, hC Handle
		var idB, idC int
		m.at(w.Add(u), func() {
			m.cancel(t, hC, idC) // tail of the sorted bucket
			if round%2 == 1 {
				m.at(w.Add(Duration(2+rng.Intn(2))*u), nil) // sorts before B
				return
			}
			m.cancel(t, hB, idB) // tail and at the cursor: releases the bucket
			if bk := &eng.buckets[bucketOf(w)]; len(bk.s) != 0 || bk.next != 0 {
				t.Errorf("round %d: bucket holds %d entries, cursor %d, after its last entry was cancelled", round, len(bk.s), bk.next)
			}
			m.at(w.Add(Duration(3+rng.Intn(12))*u), nil)
			hF, idF := m.at(w.Add(Duration(3+rng.Intn(12))*u), nil)
			m.cancel(t, hF, idF) // tail of an unsorted bucket
			m.at(eng.Now(), nil)
		})
		hB, idB = m.at(w.Add(Duration(4+rng.Intn(5))*u), nil)
		hC, idC = m.at(w.Add(Duration(9+rng.Intn(7))*u), nil)
		eng.Run(w + Time(wheelBucketWidth))
	}
	m.check(t)
}

// TestSpillBucketSameTickTies pins FIFO order for (time, seq) ties inside
// one spill bucket under cancel churn: many events at the same instant,
// some cancelled as bucket tails (reclaimed eagerly) and some as interior
// corpses (reclaimed by the drain), must fire in exact schedule order.
func TestSpillBucketSameTickTies(t *testing.T) {
	eng := NewEngine()
	horizon := park(eng, ringThreshold+1)

	const d = 3 * wheelBucketWidth // one shared instant, well inside the ring
	var fired []int
	var handles []Handle
	var want []int
	for i := 0; i < 40; i++ {
		i := i
		h := eng.Schedule(d, func() { fired = append(fired, i) })
		if h.ev.slot == overflowSlot {
			t.Fatalf("event %d routed to overflow, want ring bucket", i)
		}
		handles = append(handles, h)
		if i%5 == 4 {
			// Tail cancel: this event was the bucket's last append, so the
			// slot is truncated and the struct recycles immediately.
			eng.Cancel(h)
			handles[i] = Handle{}
		}
	}
	// Interior cancels after the fact: corpses that stay in the bucket
	// until the drain sort carries them to the tail.
	for i := 0; i < 40; i += 7 {
		eng.Cancel(handles[i]) // zero Handle for tail-cancelled ones: no-op
	}
	for i := 0; i < 40; i++ {
		if i%5 != 4 && i%7 != 0 {
			want = append(want, i)
		}
	}
	eng.Run(horizon)
	if len(fired) != len(want) {
		t.Fatalf("fired %d events, want %d (%v vs %v)", len(fired), len(want), fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("tie order diverges at %d: got %v, want %v", i, fired, want)
		}
	}
}

// TestCancelRescheduleSameBucket moves a timer out of and back into the
// same spill bucket: a tail cancel must recycle the struct immediately
// (the replacement reuses it), an interior cancel must leave a corpse
// that never fires, and the replacements fire in seq order after the
// survivors.
func TestCancelRescheduleSameBucket(t *testing.T) {
	eng := NewEngine()
	horizon := park(eng, ringThreshold+1)

	const d = 2 * wheelBucketWidth
	var order []string
	note := func(s string) func() { return func() { order = append(order, s) } }

	// Tail cancel: the cancelled event is the bucket's most recent append.
	h1 := eng.Schedule(d, func() { t.Error("tail-cancelled event fired") })
	eng.Cancel(h1)
	h2 := eng.Schedule(d, note("reissue"))
	if h2.ev != h1.ev {
		t.Fatal("tail cancel did not recycle the struct for the next schedule")
	}
	if h2.gen == h1.gen {
		t.Fatal("recycled struct kept its generation")
	}

	// Interior cancel: bury a victim mid-bucket, then reschedule the same
	// deadline; the corpse stays in the bucket until the drain.
	ha := eng.Schedule(d, note("a"))
	victim := eng.Schedule(d, func() { t.Error("interior-cancelled event fired") })
	hc := eng.Schedule(d, note("c"))
	eng.Cancel(victim)
	hb := eng.Schedule(d, note("b2")) // same instant, later seq: fires last
	for _, h := range []Handle{ha, hc, hb} {
		if h.ev.slot == overflowSlot {
			t.Fatal("same-bucket reschedule landed in overflow")
		}
	}
	eng.Run(horizon)
	want := []string{"reissue", "a", "c", "b2"}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
	if eng.Pending() != ringThreshold+1 {
		t.Fatalf("Pending = %d after drain, want %d parked", eng.Pending(), ringThreshold+1)
	}
}

// TestPromotionIntoPartiallyDrainedBucket forces an overflow→ring
// promotion to land in the bucket the cursor is currently draining. The
// clock coasts into the target window on overflow firings alone (no
// dense insert, so the ring anchor goes stale and nothing is promoted
// early); the first callback inside the window then schedules — the
// insert re-anchors mid-drain and promotes the remaining overflow events
// into the half-drained current bucket, where they must still fire in
// exact (time, seq) order alongside freshly appended neighbours. Every
// offset is a fraction of wheelBucketWidth, so the scenario holds for any
// bucket geometry.
func TestPromotionIntoPartiallyDrainedBucket(t *testing.T) {
	eng := NewEngine()
	park(eng, ringThreshold+1)

	var order []string
	var times []Time
	note := func(s string) func() {
		return func() { order = append(order, s); times = append(times, eng.Now()) }
	}

	// All of these are beyond the horizon at schedule time: overflow.
	u := wheelBucketWidth / 16 // offset unit: 16 per bucket
	base := eng.Now()
	xAt := base.Add(Duration(wheelSpan) + 8*u) // the promotion subject
	w := xAt &^ wheelAlignMask                 // its bucket window
	lead := w.Sub(base) - u                    // fires just before the window
	hX := eng.Schedule(xAt.Sub(base), note("X"))
	eng.Schedule(lead, note("lead"))
	aFired := false
	eng.Schedule(w.Sub(base)+u, func() {
		// First event inside the window: now = w+u, the ring anchor is
		// stale (no dense insert since t0). This insert re-anchors and
		// promotes X (w+8u) and C (w+12u) into the current bucket, then
		// appends E (w+2u) behind them.
		aFired = true
		if eng.Now() != w.Add(u) {
			t.Errorf("A fired at %v, want %v", eng.Now(), w.Add(u))
		}
		eng.Schedule(u, func() { // E at w+2u
			order = append(order, "E")
			times = append(times, eng.Now())
			if hX.ev.slot == overflowSlot {
				t.Error("X still in overflow after the re-anchoring insert")
			}
			// Mid-drain appends into the now-sorted, partially drained
			// bucket: F lands before X, H between X and C, G in the
			// next bucket.
			eng.Schedule(2*u, note("F"))              // w+4u
			eng.Schedule(8*u, note("H"))              // w+10u
			eng.Schedule(wheelBucketWidth, note("G")) // next bucket
		})
	})
	eng.Schedule(w.Sub(base)+12*u, note("C"))
	if hX.ev.slot != overflowSlot {
		t.Fatal("X not in overflow at schedule time")
	}

	promotedBefore := eng.Promoted()
	eng.Run(w.Add(Duration(wheelSpan)))
	if !aFired {
		t.Fatal("window-opening event never fired")
	}
	if eng.Promoted() == promotedBefore {
		t.Fatal("no promotion happened")
	}
	want := []string{"lead", "E", "F", "X", "H", "C", "G"}
	wantAt := []Time{w.Add(-u), w.Add(2 * u), w.Add(4 * u), xAt, w.Add(10 * u), w.Add(12 * u), w.Add(2*u + wheelBucketWidth)}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] || times[i] != wantAt[i] {
			t.Fatalf("fired %v at %v, want %v at %v", order, times, want, wantAt)
		}
	}
}

// TestSameInstantChainCompacts runs a long chain of zero-delay events:
// each fires from the bucket it then appends to, and a later event in the
// same bucket keeps it from emptying. Compacting the drained prefix away
// must keep the bucket in its seed array instead of growing with the
// chain.
func TestSameInstantChainCompacts(t *testing.T) {
	eng := NewEngine()
	park(eng, ringThreshold+1)
	at := eng.Now().Add(3 * wheelBucketWidth)
	bk := &eng.buckets[bucketOf(at)]
	left := 50 * bucketSeedCap
	var step func()
	step = func() {
		if cap(bk.s) != bucketSeedCap {
			t.Fatalf("bucket grew to capacity %d with one pending event", cap(bk.s))
		}
		if left--; left > 0 {
			eng.Schedule(0, step)
		}
	}
	eng.ScheduleAt(at, step)
	eng.ScheduleAt(at+Time(wheelBucketWidth)-1, func() {})
	eng.Run(at)
	if left != 0 {
		t.Fatalf("chain stopped with %d links left", left)
	}
}
