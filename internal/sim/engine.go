// Package sim is a discrete-event simulator of a CXL-equipped server: cores
// (with store buffer, line-fill buffer, and hardware prefetchers), a
// three-level cache hierarchy with a MESIF-like directory, CHA/LLC slices
// with a Table-of-Requests, the mesh, integrated memory controllers, the
// M2PCIe/FlexBus I/O path, and CXL Type-3 devices with ingress/egress
// packing buffers and a device-side memory controller.
//
// Every architectural module owns a pmu.Bank and increments the counters of
// the paper's Tables 1-4 as requests traverse it, so the profiler layers
// above observe the machine exactly the way PathFinder observes real
// hardware: through PMU reads only.
//
// Timing uses a functional-first, timing-annotated discrete-event model:
// cache state changes happen in issue order while queueing and bandwidth
// contention are modeled with per-resource next-free clocks and occupancy
// integrators, which yields cycle-granular counter semantics without
// per-cycle ticking.
package sim

import (
	"fmt"
	"math/bits"

	"pathfinder/internal/pmu"
)

// Cycles is a point in simulated time, in core clock cycles.
type Cycles = uint64

// evKind selects the pre-bound payload an event dispatches to.  The hot
// schedule sites (core stepping, queue-occupancy edges, IMC and CXL
// completions) use dedicated kinds so scheduling allocates nothing; evFunc
// is the general closure fallback for cold paths and tests.
type evKind uint8

const (
	evFunc      evKind = iota // fn(now)
	evCoreStep                // target *Core: execute the next workload op of step chain arg
	evOcc                     // target *pmu.OccTracker: Update(now, aux)
	evOccPulse                // target *pmu.OccTracker: Update(now, +1) + Release(arg)
	evLFBDemand               // target *Core: lfbOcc + missL1Busy pulses, release at arg
	evORODemand               // target *Core: oroData + oroDemand pulses, release at arg
	evBusyBegin               // target *pmu.BusyTracker
	evBusyEnd
	evBusyPulse // target *pmu.BusyTracker: Begin(now) + Release(arg)
	evBankInc   // target *pmu.Bank: Inc(Event(aux))
	evBankAdd   // target *pmu.Bank: Add(Event(aux), arg)
	evServe     // target *Core: retired-load/OCR serve counters, aux=class|loc
	evTOREnter
	evTORLeave // target *chaSlice: TOR insert/occupancy edges, aux=class|loc
	evTORPulse // target *chaSlice: TOR enter at now, leave queued at arg
	evWBInsert // target *chaSlice: writeback TOR inserts, aux=transition
	evIMCReadAdmit
	evIMCWriteAdmit // target *imcChannel: RPQ/WPQ insert + CAS counters
	evCXLArrive     // target *cxlPort: M2PCIe ingress insert
	evCXLReadDev
	evCXLReadRPQ
	evCXLReadData
	evCXLWriteDev
	evCXLWriteWPQ
	evCXLWriteDone // target *cxlPort: device-side read/write stages
	evCXLCRC       // target *cxlPort: link CRC error + replay, arg=bytes
)

// event is a scheduled action: either a pre-bound payload (kind != evFunc)
// or a callback.  target always holds a pointer, so boxing it in the
// interface never allocates.
type event struct {
	when   Cycles
	seq    uint64 // tie-breaker for deterministic ordering
	arg    uint64
	target any
	fn     func(now Cycles)
	aux    int32
	kind   evKind
}

// obsEvent is one deferred observer action: a pre-bound PMU payload (a
// counter increment or an occupancy/busy-tracker edge) stamped with the
// cycle it describes.  Observer entries are pure functions of PMU state —
// nothing in the simulation reads the counters they touch between
// observation points — so they can be applied lazily in bulk instead of
// paying an event-engine round-trip each.
type obsEvent struct {
	target any
	when   Cycles
	arg    uint64
	aux    int32
	kind   evKind
}

// obsFarEvent wraps a beyond-the-turn observer entry with its schedule
// order, the tie-break among same-cycle far entries in the heap.
type obsFarEvent struct {
	ev  obsEvent
	seq uint64
}

// The near-horizon timing wheel: one slot per cycle for the next wheelSlots
// cycles.  The dominant event delays (cache latencies, queue residencies,
// DRAM/CXL media trips) are well under this horizon, so most events take
// the O(1) wheel path; only far-future events pay the O(log n) heap.
const (
	wheelBits  = 12
	wheelSlots = 1 << wheelBits
	wheelMask  = wheelSlots - 1
	wheelWords = wheelSlots / 64
)

// The observer lane gets a much wider wheel than the event engine.  Event
// delays are bounded by device latencies, but observer completion entries
// ride the *backlogged* service times of saturated CXL/IMC queues, which
// run tens of thousands of cycles ahead of the clock under backpressure.
// Keeping those on the O(1) wheel path instead of the O(log n) far heap is
// worth the extra slot headers (~1.5 MiB per engine).
const (
	obsWheelBits  = 16
	obsWheelSlots = 1 << obsWheelBits
	obsWheelMask  = obsWheelSlots - 1
	obsWheelWords = obsWheelSlots / 64
)

// Engine is the discrete-event core: a timing wheel for near events and a
// flat binary min-heap (ordered by when, then seq) for far ones.
type Engine struct {
	now  Cycles
	seq  uint64
	mach *Machine // payload dispatch context (nil for bare engines)

	heap []event // far-horizon events, (when, seq)-ordered binary heap

	// wheel buckets normally hold one `when` each; while the run-ahead
	// fast path advances the clock mid-drain, a bucket may additionally
	// accumulate entries for later wheel rotations (when-nondecreasing in
	// append order, so the head is always the bucket minimum).
	wheel    [][]event
	occupied [wheelWords]uint64
	wheelLen int

	// Run-ahead state.  horizon is the active RunUntil bound; runAhead
	// gates the core-stepping fast path (tests force it off to prove PMU
	// equivalence).  drainSlot/drainConsumed expose how far runAt has
	// consumed the bucket it is draining, so quietUntil can tell
	// already-dispatched prefix entries from live ones mid-dispatch.
	horizon       Cycles
	runAhead      bool
	drainSlot     int
	drainConsumed int

	// Fast-path observability: ops executed inline by the run-ahead loop
	// versus events dispatched through the engine (the
	// pf_engine_inline_steps / pf_engine_dispatched_events counter pair).
	inlineSteps uint64
	dispatched  uint64

	// The observer lane: PMU bookkeeping (bank increments, occupancy and
	// busy edges) scheduled for a future cycle but carrying no simulation
	// side effects.  These entries never enter the event wheel or heap,
	// so they neither wake the engine nor block the run-ahead fast path;
	// they are applied in exact (when, schedule-order) order by drainObs
	// at every observation point (RunUntil exit, Step exit, Sync, DevLoad,
	// before any evFunc closure, and at every clock advance).  obsLast is
	// the drain cursor: every entry with when <= obsLast has been applied.
	//
	// Because the lane is drained whenever the clock advances, every
	// pending wheel entry's when lies in (obsLast, obsLast+obsWheelSlots):
	// one wheel turn.  A slot therefore holds entries of exactly one
	// cycle (appended in schedule order), and walking occupied slots
	// forward from the cursor visits entries in global cycle order — no
	// sorting anywhere on the hot path.  Entries scheduled beyond the
	// turn go to obsFar, a (when, seq) min-heap; a far entry's seq is
	// always below any wheel entry's for the same cycle (near-eligibility
	// only grows as the clock advances), so draining the far heap up to
	// each slot's cycle before the slot preserves schedule order exactly.
	obsWheel [][]obsEvent
	obsOcc   [obsWheelWords]uint64
	obsLen   int // wheel-resident entries
	obsFar   []obsFarEvent
	obsSeq   uint64
	obsLast  Cycles
}

// NewEngine returns an engine at cycle zero.
func NewEngine() *Engine {
	e := &Engine{
		wheel:     make([][]event, wheelSlots),
		obsWheel:  make([][]obsEvent, obsWheelSlots),
		runAhead:  true,
		drainSlot: -1,
	}
	// Seed every observer slot with capacity 2 carved from one flat arena.
	// Lazy growth would spread ~4 allocations per touched slot over the
	// first wheel turn — construction-time cost leaking into measured
	// steady state; only slots that ever exceed two same-cycle entries
	// fall back to the ordinary append-grow path.
	arena := make([]obsEvent, 2*obsWheelSlots)
	for i := range e.obsWheel {
		e.obsWheel[i] = arena[2*i : 2*i : 2*i+2]
	}
	return e
}

// Now returns the current simulated cycle.
func (e *Engine) Now() Cycles { return e.now }

// Pending reports the number of scheduled events.
func (e *Engine) Pending() int { return len(e.heap) + e.wheelLen }

// Schedule runs fn at cycle when.  Scheduling in the past is a simulator
// bug and panics.
func (e *Engine) Schedule(when Cycles, fn func(now Cycles)) {
	e.checkPast(when)
	e.seq++
	e.push(event{when: when, seq: e.seq, kind: evFunc, fn: fn})
}

// After runs fn d cycles from now.
func (e *Engine) After(d Cycles, fn func(now Cycles)) {
	e.Schedule(e.now+d, fn)
}

// at schedules a pre-bound payload event; the hot-path twin of Schedule.
func (e *Engine) at(when Cycles, kind evKind, target any, aux int32, arg uint64) {
	e.checkPast(when)
	e.seq++
	e.push(event{when: when, seq: e.seq, kind: kind, target: target, aux: aux, arg: arg})
}

// obsAt schedules a deferred observer action for cycle `when`.  Unlike at,
// the entry bypasses the event engine entirely: it is buffered on the
// observer wheel and applied by drainObs at the next observation point at
// or after `when`.  Entries at or behind the drain cursor apply
// immediately — they are the newest bookkeeping for that cycle, so
// in-order application is preserved.
func (e *Engine) obsAt(when Cycles, kind evKind, target any, aux int32, arg uint64) {
	e.checkPast(when)
	if when <= e.obsLast {
		ev := obsEvent{target: target, when: when, arg: arg, aux: aux, kind: kind}
		e.applyObs(&ev)
		return
	}
	if when-e.now < obsWheelSlots {
		slot := int(when) & obsWheelMask
		e.obsWheel[slot] = append(e.obsWheel[slot],
			obsEvent{target: target, when: when, arg: arg, aux: aux, kind: kind})
		e.obsOcc[slot>>6] |= 1 << uint(slot&63)
		e.obsLen++
		return
	}
	e.obsSeq++
	e.obsFar = append(e.obsFar, obsFarEvent{
		ev:  obsEvent{target: target, when: when, arg: arg, aux: aux, kind: kind},
		seq: e.obsSeq,
	})
	e.obsSiftUp(len(e.obsFar) - 1)
}

// drainObs applies every buffered observer entry with when <= ts, in
// nondecreasing when order (same-cycle entries in schedule order), and
// advances the drain cursor to ts.  Because the cursor rides the clock,
// the occupied-slot window it scans is as narrow as the advance itself —
// one word of the occupancy bitmap for a typical inline step.
func (e *Engine) drainObs(ts Cycles) {
	if ts <= e.obsLast {
		return
	}
	if e.obsLen == 0 {
		if len(e.obsFar) > 0 {
			e.drainFarUpTo(ts)
		}
		e.obsLast = ts
		return
	}
	// Every pending wheel when is in (obsLast, obsLast+obsWheelSlots); cap
	// the scan at one full turn — beyond it there is nothing to find.
	endC := ts
	if m := e.obsLast + obsWheelSlots - 1; endC > m {
		endC = m
	}
	start := int(e.obsLast+1) & obsWheelMask
	n := int(endC - e.obsLast) // slots in the window
	wi := start >> 6
	first := start & 63
	for n > 0 {
		span := 64 - first
		mask := ^uint64(0) << uint(first)
		if n < span {
			mask &= ^uint64(0) >> uint(64-(first+n))
			span = n
		}
		w := e.obsOcc[wi] & mask
		for w != 0 {
			slot := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			b := e.obsWheel[slot]
			if len(e.obsFar) > 0 {
				e.drainFarUpTo(b[0].when)
			}
			for i := range b {
				e.applyObs(&b[i])
			}
			e.obsLen -= len(b)
			clear(b) // release target references
			e.obsWheel[slot] = b[:0]
			e.obsOcc[slot>>6] &^= 1 << uint(slot&63)
		}
		n -= span
		first = 0
		wi++
		if wi == obsWheelWords {
			wi = 0
		}
	}
	if len(e.obsFar) > 0 {
		e.drainFarUpTo(ts)
	}
	e.obsLast = ts
}

// drainFarUpTo applies far-heap entries due at or before w.
func (e *Engine) drainFarUpTo(w Cycles) {
	for len(e.obsFar) > 0 && e.obsFar[0].ev.when <= w {
		ev := e.obsFarPop()
		e.applyObs(&ev.ev)
	}
}

func obsLess(a, b *obsFarEvent) bool {
	if a.ev.when != b.ev.when {
		return a.ev.when < b.ev.when
	}
	return a.seq < b.seq
}

func (e *Engine) obsSiftUp(i int) {
	h := e.obsFar
	for i > 0 {
		p := (i - 1) / 2
		if !obsLess(&h[i], &h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (e *Engine) obsFarPop() obsFarEvent {
	h := e.obsFar
	ev := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = obsFarEvent{} // release target reference
	e.obsFar = h[:n]
	if n > 1 {
		h = e.obsFar
		i := 0
		for {
			l := 2*i + 1
			if l >= n {
				break
			}
			m := l
			if r := l + 1; r < n && obsLess(&h[r], &h[l]) {
				m = r
			}
			if !obsLess(&h[m], &h[i]) {
				break
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	return ev
}

func (e *Engine) checkPast(when Cycles) {
	if when < e.now {
		panic(fmt.Sprintf(
			"sim: scheduling into the past: when=%d now=%d (%d cycles behind, %d events pending)",
			when, e.now, e.now-when, e.Pending()))
	}
}

// push routes an event to the wheel (near horizon) or the heap (far).
func (e *Engine) push(ev event) {
	if ev.when-e.now < wheelSlots {
		slot := int(ev.when) & wheelMask
		e.wheel[slot] = append(e.wheel[slot], ev)
		e.occupied[slot>>6] |= 1 << uint(slot&63)
		e.wheelLen++
		return
	}
	e.heap = append(e.heap, ev)
	e.siftUp(len(e.heap) - 1)
}

func evLess(a, b *event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

func (e *Engine) siftUp(i int) {
	h := e.heap
	for i > 0 {
		p := (i - 1) / 2
		if !evLess(&h[i], &h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && evLess(&h[r], &h[l]) {
			m = r
		}
		if !evLess(&h[m], &h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

func (e *Engine) heapPop() event {
	h := e.heap
	ev := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // release target/fn references
	e.heap = h[:n]
	if n > 1 {
		e.siftDown(0)
	}
	return ev
}

// wheelNextWhen returns the earliest wheel-resident cycle, scanning the
// occupancy bitmap forward from now (wrapping once around the horizon).
// Bucket entries are when-nondecreasing, so the head of the first occupied
// bucket is the wheel minimum.
func (e *Engine) wheelNextWhen() (Cycles, bool) {
	if e.wheelLen == 0 {
		return 0, false
	}
	start := int(e.now) & wheelMask
	wi := start >> 6
	mask := ^uint64(0) << uint(start&63)
	for i := 0; i <= wheelWords; i++ {
		if w := e.occupied[wi] & mask; w != 0 {
			slot := wi<<6 + bits.TrailingZeros64(w)
			return e.wheel[slot][0].when, true
		}
		mask = ^uint64(0)
		wi++
		if wi == wheelWords {
			wi = 0
		}
	}
	return 0, false
}

// nextWhen returns the earliest scheduled cycle across wheel and heap.
func (e *Engine) nextWhen() (Cycles, bool) {
	when := ^Cycles(0)
	ok := false
	if len(e.heap) > 0 {
		when, ok = e.heap[0].when, true
	}
	if w, wok := e.wheelNextWhen(); wok && w < when {
		when, ok = w, true
	}
	return when, ok
}

// runAt executes every event scheduled for exactly cycle `when`, merging
// the wheel bucket and same-cycle heap entries in seq order so determinism
// matches a single global priority queue.  Events scheduled for `when`
// during execution (same-cycle cascades) are appended to the bucket and
// drained in the same pass.
//
// The drain exposes its progress through drainSlot/drainConsumed so the
// core-stepping fast path (quietUntil) can see through the
// already-dispatched prefix of the bucket.  A dispatched handler may
// advance the clock via run-ahead; the drain then stops — any entries left
// in the bucket were pushed for later wheel rotations while the clock
// moved and stay queued.  The bucket's occupancy bit is dropped the moment
// its last entry is taken (push re-sets it on a same-cycle cascade), so
// the bitmap never shows a consumed-only bucket as live.
func (e *Engine) runAt(when Cycles) {
	slot := int(when) & wheelMask
	e.drainSlot, e.drainConsumed = slot, 0
	i := 0
	for e.now == when {
		b := e.wheel[slot]
		haveW := i < len(b) && b[i].when == when
		haveH := len(e.heap) > 0 && e.heap[0].when == when
		if haveW && (!haveH || b[i].seq < e.heap[0].seq) {
			ev := b[i]
			i++
			e.drainConsumed = i
			if i == len(b) {
				e.occupied[slot>>6] &^= 1 << uint(slot&63)
			}
			e.dispatch(&ev, when)
		} else if haveH {
			ev := e.heapPop()
			e.dispatch(&ev, when)
		} else {
			break
		}
	}
	if i > 0 {
		// Release the consumed prefix.  Entries past it belong to future
		// cycles (wheel-wrap collisions pushed while run-ahead advanced
		// the clock past `when`) and keep the slot occupied — push set
		// the bit when it appended them.
		b := e.wheel[slot]
		rem := copy(b, b[i:])
		clear(b[rem:]) // release target/fn references
		e.wheel[slot] = b[:rem]
		e.wheelLen -= i
	}
	e.drainSlot, e.drainConsumed = -1, 0
}

// Step executes the earliest event, returning false when none remain.
func (e *Engine) Step() bool {
	when, ok := e.nextWhen()
	if !ok {
		return false
	}
	e.now = when
	// Settle observer work due by the new cycle before dispatching: the
	// cursor must ride the clock so pending entries stay within one
	// wheel turn of it (the single-cycle-per-slot invariant).
	e.drainObs(when)
	slot := int(when) & wheelMask
	haveW := len(e.wheel[slot]) > 0 && e.wheel[slot][0].when == when
	haveH := len(e.heap) > 0 && e.heap[0].when == when
	var ev event
	if haveW && (!haveH || e.wheel[slot][0].seq < e.heap[0].seq) {
		b := e.wheel[slot]
		ev = b[0]
		n := copy(b, b[1:])
		b[n] = event{}
		e.wheel[slot] = b[:n]
		if n == 0 {
			e.occupied[slot>>6] &^= 1 << uint(slot&63)
		}
		e.wheelLen--
	} else {
		ev = e.heapPop()
	}
	e.dispatch(&ev, when)
	// Settle deferred observer work so state between single steps matches
	// the engine that ran every observer as an event.
	e.drainObs(e.now)
	return true
}

// RunUntil executes events up to and including cycle t, then advances the
// clock to t.  Events scheduled during execution are honored if they fall
// within the horizon.  While the loop runs, t is published as the engine's
// run-ahead horizon: the core-stepping fast path may advance the clock
// inline up to t, but never beyond it.
func (e *Engine) RunUntil(t Cycles) {
	e.horizon = t
	for {
		when, ok := e.nextWhen()
		if !ok || when > t {
			break
		}
		e.now = when
		e.drainObs(when)
		e.runAt(when)
	}
	if t > e.now {
		e.now = t
	}
	// Leave no stale future horizon behind: a later Step must execute
	// exactly one event, never run ahead on the strength of an old bound.
	e.horizon = e.now
	// Apply all deferred observer bookkeeping the run produced, so callers
	// observe counters exactly as the event-per-observer engine left them.
	e.drainObs(e.now)
}

// quietUntil reports whether no live event — wheel or heap, beyond the
// already-dispatched prefix of the bucket being drained — is scheduled at
// or before cycle t.  This is the run-ahead safety check: when it holds,
// a core step at t would have been the globally next event anyway, so
// executing it inline (advancing the clock directly) preserves the event
// interleaving, and with it every PMU counter, exactly.
func (e *Engine) quietUntil(t Cycles) bool {
	if len(e.heap) > 0 && e.heap[0].when <= t {
		return false
	}
	if e.wheelLen == e.drainConsumed {
		return true // every wheel entry is the current drain's consumed prefix
	}
	// Live wheel entries all land within [now, now+wheelSlots) and the
	// occupancy bitmap carries no stale bits (runAt drops a bucket's bit
	// with its last entry), so any occupied slot in the circular window
	// [now, t] holds an event at or before t.
	if t-e.now >= wheelSlots-1 {
		return false
	}
	start := int(e.now) & wheelMask
	n := int(t-e.now) + 1 // slots to inspect
	wi := start >> 6
	first := start & 63
	for n > 0 {
		span := 64 - first
		mask := ^uint64(0) << uint(first)
		if n < span {
			mask &= ^uint64(0) >> uint(64-(first+n))
			span = n
		}
		if e.occupied[wi]&mask != 0 {
			return false
		}
		n -= span
		first = 0
		wi++
		if wi == wheelWords {
			wi = 0
		}
	}
	return true
}

// packClassLoc folds a request class and serve location into an event aux.
func packClassLoc(class ReqClass, loc ServeLoc) int32 {
	return int32(class)<<8 | int32(loc)
}

func unpackClassLoc(aux int32) (ReqClass, ServeLoc) {
	return ReqClass(aux >> 8), ServeLoc(aux & 0xff)
}

// dispatch runs one event.  The payload kinds inline the bodies that were
// per-event closures before the allocation-free rewrite; evFunc remains
// the general path.
func (e *Engine) dispatch(ev *event, now Cycles) {
	e.dispatched++
	switch ev.kind {
	case evFunc:
		// Closures observe simulator state (counters, DevLoad, fault
		// plans), so buffered observer work up to now must be visible —
		// exactly as it was when every observer ran as an engine event.
		e.drainObs(now)
		ev.fn(now)
	case evCoreStep:
		if c := ev.target.(*Core); ev.arg == c.chain {
			e.mach.coreStep(c, now)
		}
	default:
		// Observer kinds scheduled as real events (tests, cold paths)
		// share the deferred-application payload code.
		e.applyObs(&obsEvent{when: now, arg: ev.arg, target: ev.target, aux: ev.aux, kind: ev.kind})
	}
}

// applyObs performs one observer action at its stamped cycle.  Payloads
// are pure PMU bookkeeping: bank counter increments and occupancy/busy
// tracker edges.  Entries for equal cycles commute, so drain order only
// has to be correct across distinct cycles.
func (e *Engine) applyObs(ev *obsEvent) {
	now := ev.when
	switch ev.kind {
	case evOcc:
		ev.target.(*pmu.OccTracker).Update(now, int(ev.aux))
	case evOccPulse:
		tr := ev.target.(*pmu.OccTracker)
		tr.Update(now, +1)
		tr.Release(ev.arg)
	case evLFBDemand:
		c := ev.target.(*Core)
		c.lfbOcc.Update(now, +1)
		c.lfbOcc.Release(ev.arg)
		c.missL1Busy.Begin(now)
		c.missL1Busy.Release(ev.arg)
	case evORODemand:
		c := ev.target.(*Core)
		c.oroData.Update(now, +1)
		c.oroData.Release(ev.arg)
		c.oroDemand.Update(now, +1)
		c.oroDemand.Release(ev.arg)
	case evBusyPulse:
		tr := ev.target.(*pmu.BusyTracker)
		tr.Begin(now)
		tr.Release(ev.arg)
	case evBusyBegin:
		ev.target.(*pmu.BusyTracker).Begin(now)
	case evBusyEnd:
		ev.target.(*pmu.BusyTracker).End(now)
	case evBankInc:
		ev.target.(*pmu.Bank).Inc(pmu.Event(ev.aux))
	case evBankAdd:
		ev.target.(*pmu.Bank).Add(pmu.Event(ev.aux), ev.arg)
	case evServe:
		class, loc := unpackClassLoc(ev.aux)
		ev.target.(*Core).serveRetired(class, loc)
	case evTOREnter:
		class, loc := unpackClassLoc(ev.aux)
		ev.target.(*chaSlice).torEnter(now, class, loc)
	case evTORLeave:
		class, loc := unpackClassLoc(ev.aux)
		ev.target.(*chaSlice).torLeave(now, class, loc)
	case evTORPulse:
		class, loc := unpackClassLoc(ev.aux)
		ev.target.(*chaSlice).torPulse(now, Cycles(ev.arg), class, loc)
	case evWBInsert:
		s := ev.target.(*chaSlice)
		s.bank.Inc(pmu.TORInsertsIAWB[int(ev.aux)])
		s.bank.Inc(pmu.TORInsertsIA[pmu.IAAll])
	case evIMCReadAdmit:
		ch := ev.target.(*imcChannel)
		ch.bank.Inc(pmu.RPQInserts)
		ch.bank.Inc(pmu.CASCountRd)
		ch.bank.Inc(pmu.CASCountAll)
		ch.rpqOcc.Update(now, +1)
		ch.rpqOcc.Release(ev.arg)
	case evIMCWriteAdmit:
		ch := ev.target.(*imcChannel)
		ch.bank.Inc(pmu.WPQInserts)
		ch.bank.Inc(pmu.CASCountWr)
		ch.bank.Inc(pmu.CASCountAll)
		ch.wpqOcc.Update(now, +1)
		ch.wpqOcc.Release(ev.arg)
	case evCXLArrive:
		p := ev.target.(*cxlPort)
		p.m2pBank.Inc(pmu.M2PRxInserts)
		p.ingress.Update(now, +1)
	case evCXLReadDev:
		p := ev.target.(*cxlPort)
		p.devBank.Inc(pmu.CXLRxPackBufInsertsReq)
		p.packReqOcc.Update(now, +1)
		p.qos.Update(now, +1)
	case evCXLReadRPQ:
		p := ev.target.(*cxlPort)
		p.packReqOcc.Update(now, -1)
		p.devBank.Inc(pmu.CXLDevRPQInserts)
		p.devRPQOcc.Update(now, +1)
	case evCXLReadData:
		p := ev.target.(*cxlPort)
		p.devRPQOcc.Update(now, -1)
		p.qos.Update(now, -1)
		p.devBank.Inc(pmu.CXLDevCASRd)
		p.devBank.Inc(pmu.CXLTxPackBufInsertsData)
	case evCXLWriteDev:
		p := ev.target.(*cxlPort)
		p.devBank.Inc(pmu.CXLRxPackBufInsertsData)
		p.packDataOcc.Update(now, +1)
		p.qos.Update(now, +1)
	case evCXLWriteWPQ:
		p := ev.target.(*cxlPort)
		p.packDataOcc.Update(now, -1)
		p.devBank.Inc(pmu.CXLDevWPQInserts)
		p.devWPQOcc.Update(now, +1)
	case evCXLWriteDone:
		p := ev.target.(*cxlPort)
		p.devWPQOcc.Update(now, -1)
		p.qos.Update(now, -1)
		p.devBank.Inc(pmu.CXLDevCASWr)
		p.devBank.Inc(pmu.CXLTxPackBufInsertsReq)
	case evCXLCRC:
		p := ev.target.(*cxlPort)
		p.devBank.Inc(pmu.CXLLinkCRCErrors)
		p.devBank.Inc(pmu.CXLLinkRetries)
		p.devBank.Add(pmu.CXLLinkReplayBytes, ev.arg)
	}
}
