package sim

import (
	"math/rand"
	"testing"
)

// Tests for the same-instant lane and the delay FIFOs: an event scheduled
// for the current instant waits in a FIFO beside the heap, an event
// scheduled through a DelayLine waits in that delay's FIFO behind a heap
// proxy, and the engine fires the smallest of them all by (at, seq).

// refRecord is a pending event as the reference order sees it: the (at, seq)
// pair the engine promises to fire in.
type refRecord struct {
	at  Time
	seq uint64
}

func (r refRecord) before(o refRecord) bool {
	if r.at != o.at {
		return r.at < o.at
	}
	return r.seq < o.seq
}

// The queues a reference-order event can wait in.
const (
	refHeap = iota
	refLane
	refFIFO
	refDelivery
	refQueues
)

// queueOf names the queue a Handle's tag says its event waits in.
func queueOf(h Handle) int {
	switch {
	case h.tag == tagLane:
		return refLane
	case h.tag < 0:
		return refFIFO
	}
	return refHeap
}

// refCounts is what one reference-order run exercised.
type refCounts struct {
	// mixed counts (shard, instant) pairs that fired both a delivery and a
	// lane event; fifoMixed those that fired a FIFO event, a lane event and
	// a delivery.
	mixed, fifoMixed int
	// cancels counts events cancelled while pending, by queue.
	cancels [refQueues]int
}

// TestEngineFiresInReferenceOrder drives a two-shard group with random At,
// After, Immediately, DelayLine and Cancel calls, most of them made from
// inside callbacks, plus keyed deliveries (cross-shard, and same-shard with
// zero delay too) on a coarse time grid, so that deliveries and the events
// of three delay FIFOs land on instants that also fire lane events. Each
// event's (at, seq) record is kept while it is pending: every local event
// must take the next sequence number, every firing must be the smallest
// pending record of its engine, Cancel must report exactly whether the event
// was pending, and exactly the uncancelled events fire.
func TestEngineFiresInReferenceOrder(t *testing.T) {
	var total refCounts
	for seed := int64(1); seed <= 10; seed++ {
		c := checkReferenceOrder(t, seed)
		total.mixed += c.mixed
		total.fifoMixed += c.fifoMixed
		for q, n := range c.cancels {
			total.cancels[q] += n
		}
	}
	if total.mixed == 0 {
		t.Fatal("no delivery fired at an instant that also fired lane events")
	}
	if total.fifoMixed == 0 {
		t.Fatal("no FIFO event fired at an instant that also fired a lane event and a delivery")
	}
	if total.cancels[refLane] == 0 {
		t.Fatal("no lane event was cancelled")
	}
	if total.cancels[refFIFO] == 0 {
		t.Fatal("no FIFO event was cancelled")
	}
}

// checkReferenceOrder runs one seeded program and reports what it
// exercised.
func checkReferenceOrder(t *testing.T, seed int64) (counts refCounts) {
	t.Helper()
	const (
		shards    = 2
		lookahead = Duration(20)
		budget    = 3000 // events scheduled per run
	)
	type issued struct {
		h  Handle
		id int
		q  int // refHeap, refLane or refFIFO
	}
	rng := rand.New(rand.NewSource(seed))
	s := NewShards(shards, lookahead)
	pending := make([]map[int]refRecord, shards) // by engine: event id -> record
	handles := make([][]issued, shards)          // by shard: every Handle issued
	firedAt := make([][refQueues]map[Time]bool, shards)
	seqs := make([]uint64, shards) // by shard: local sequence numbers issued
	lines := make([][]DelayLine, shards)
	for i := range pending {
		pending[i] = map[int]refRecord{}
		for q := range firedAt[i] {
			firedAt[i][q] = map[Time]bool{}
		}
		for _, d := range []Duration{10, 20, 30} {
			lines[i] = append(lines[i], s.Engine(i).Delay(d))
		}
	}
	ids, fired, cancelled := 0, 0, 0
	var key uint64

	var act func(i int)
	callback := func(i, id, q int) func() {
		return func() {
			e := s.Engine(i)
			rec, ok := pending[i][id]
			if !ok {
				t.Fatalf("seed %d: event %d fired on shard %d but is not pending", seed, id, i)
			}
			for oid, o := range pending[i] {
				if o.before(rec) {
					t.Fatalf("seed %d: event %d (%v, %#x) fired before pending event %d (%v, %#x)",
						seed, id, rec.at, rec.seq, oid, o.at, o.seq)
				}
			}
			if e.Now() != rec.at {
				t.Fatalf("seed %d: event %d for %v fired at %v", seed, id, rec.at, e.Now())
			}
			delete(pending[i], id)
			fired++
			firedAt[i][q][rec.at] = true
			for n := 1 + rng.Intn(3); n > 0; n-- {
				act(i)
			}
		}
	}
	act = func(i int) {
		e := s.Engine(i)
		r := rng.Intn(10)
		if r < 2 && len(handles[i]) > 0 {
			is := handles[i][rng.Intn(len(handles[i]))]
			_, want := pending[i][is.id]
			if got := is.h.Cancel(e); got != want {
				t.Fatalf("seed %d: Cancel of event %d returned %v, pending %v", seed, is.id, got, want)
			}
			if want {
				delete(pending[i], is.id)
				cancelled++
				counts.cancels[is.q]++
			}
			return
		}
		if ids >= budget {
			return
		}
		id := ids
		ids++
		if r < 5 {
			dst := rng.Intn(shards)
			d := lookahead + Duration(rng.Intn(3))*10
			if dst == i {
				d = Duration(rng.Intn(3)) * 10
			}
			key++
			pending[dst][id] = refRecord{at: e.Now().Add(d), seq: deliverySeqBase | key}
			s.Send(i, dst, d, key, callback(dst, id, refDelivery))
			return
		}
		d := Duration(rng.Intn(4)) * 10
		q := refHeap
		if d == 0 {
			q = refLane
		}
		var h Handle
		switch rng.Intn(4) {
		case 0:
			h = e.At(e.Now().Add(d), callback(i, id, q))
		case 1:
			h = e.After(d, callback(i, id, q))
		case 2:
			d, q = 0, refLane
			h = e.Immediately(callback(i, id, q))
		default:
			k := rng.Intn(len(lines[i]))
			d, q = Duration(10*(k+1)), refFIFO
			h = lines[i][k].Schedule(callback(i, id, q))
		}
		if got := queueOf(h); got != q {
			t.Fatalf("seed %d: event %d with delay %v waits in queue %d, want %d", seed, id, d, got, q)
		}
		seqs[i]++
		if e.seq != seqs[i] {
			t.Fatalf("seed %d: event %d took sequence number %d, want %d", seed, id, e.seq, seqs[i])
		}
		pending[i][id] = refRecord{at: e.Now().Add(d), seq: seqs[i]}
		handles[i] = append(handles[i], issued{h, id, q})
	}

	for i := 0; i < shards; i++ {
		for n := 0; n < 8; n++ {
			act(i)
		}
	}
	s.Run(1)

	for i := range pending {
		if len(pending[i]) != 0 {
			t.Fatalf("seed %d: %d events left pending on shard %d after the run", seed, len(pending[i]), i)
		}
		for at := range firedAt[i][refDelivery] {
			if firedAt[i][refLane][at] {
				counts.mixed++
				if firedAt[i][refFIFO][at] {
					counts.fifoMixed++
				}
			}
		}
	}
	if fired+cancelled != ids {
		t.Fatalf("seed %d: fired %d + cancelled %d != scheduled %d", seed, fired, cancelled, ids)
	}
	return counts
}

// A warm chain of same-instant events allocates nothing: each firing
// schedules the next with Immediately, and the lane reuses its storage.
func TestEngineSameInstantZeroAlloc(t *testing.T) {
	eng := NewEngine()
	remaining := 0
	var next func()
	next = func() {
		if remaining > 0 {
			remaining--
			eng.Immediately(next)
		}
	}
	chain := func() {
		remaining = 64
		eng.Immediately(next)
		eng.Run()
	}
	chain() // warm the slot table and the lane
	if allocs := testing.AllocsPerRun(100, chain); allocs != 0 {
		t.Fatalf("warm Immediately chain allocates %.1f per run, want 0", allocs)
	}
}

// A same-instant cascade that never lets the lane drain — every firing
// schedules one more same-instant event — reuses the lane's array instead
// of growing it with every event fired.
func TestEngineLaneCascadeBounded(t *testing.T) {
	eng := NewEngine()
	const width, depth = 100, 100_000
	fired, remaining := 0, depth
	var next func()
	next = func() {
		fired++
		if remaining > 0 {
			remaining--
			eng.Immediately(next)
		}
	}
	for i := 0; i < width; i++ {
		eng.Immediately(next)
	}
	eng.Run()
	if fired != width+depth {
		t.Fatalf("fired %d events, want %d", fired, width+depth)
	}
	if c := cap(eng.lane.q); c > 4*width {
		t.Fatalf("lane array grew to %d entries for at most %d pending", c, width)
	}
}
