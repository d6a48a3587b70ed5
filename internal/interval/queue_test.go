package interval

import (
	"math/rand"
	"testing"

	"hierdet/internal/vclock"
)

func ivl(seq int) Interval {
	return New(0, seq, vclock.Of(uint32(seq*2+1)), vclock.Of(uint32(seq*2+2)))
}

func TestQueueFIFO(t *testing.T) {
	q := NewQueue()
	if !q.Empty() || q.Len() != 0 {
		t.Fatal("fresh queue not empty")
	}
	for i := 0; i < 5; i++ {
		q.Enqueue(ivl(i))
	}
	if q.Len() != 5 {
		t.Fatalf("Len = %d, want 5", q.Len())
	}
	for i := 0; i < 5; i++ {
		if h := q.Head(); h.Seq != i {
			t.Fatalf("Head.Seq = %d, want %d", h.Seq, i)
		}
		if d := q.DeleteHead(); d.Seq != i {
			t.Fatalf("DeleteHead.Seq = %d, want %d", d.Seq, i)
		}
	}
	if !q.Empty() {
		t.Fatal("queue not empty after draining")
	}
}

func TestQueueWraparound(t *testing.T) {
	q := NewQueue()
	seq := 0
	next := 0
	// Interleave enqueues and deletes so the ring head walks around the
	// buffer repeatedly.
	r := rand.New(rand.NewSource(7))
	for step := 0; step < 10000; step++ {
		if q.Empty() || r.Intn(2) == 0 {
			q.Enqueue(ivl(seq))
			seq++
		} else {
			if d := q.DeleteHead(); d.Seq != next {
				t.Fatalf("step %d: deleted seq %d, want %d", step, d.Seq, next)
			}
			next++
		}
	}
	for !q.Empty() {
		if d := q.DeleteHead(); d.Seq != next {
			t.Fatalf("drain: deleted seq %d, want %d", d.Seq, next)
		}
		next++
	}
	if next != seq {
		t.Fatalf("drained %d, enqueued %d", next, seq)
	}
}

func TestQueueHighWater(t *testing.T) {
	q := NewQueue()
	for i := 0; i < 10; i++ {
		q.Enqueue(ivl(i))
	}
	for i := 0; i < 8; i++ {
		q.DeleteHead()
	}
	q.Enqueue(ivl(10))
	if q.HighWater != 10 {
		t.Fatalf("HighWater = %d, want 10", q.HighWater)
	}
}

func TestQueueSnapshot(t *testing.T) {
	q := NewQueue()
	for i := 0; i < 6; i++ {
		q.Enqueue(ivl(i))
	}
	q.DeleteHead()
	q.DeleteHead()
	snap := q.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("Snapshot len = %d, want 4", len(snap))
	}
	for i, x := range snap {
		if x.Seq != i+2 {
			t.Fatalf("Snapshot[%d].Seq = %d, want %d", i, x.Seq, i+2)
		}
	}
}

func TestQueuePanics(t *testing.T) {
	q := NewQueue()
	for name, f := range map[string]func(){
		"Head":       func() { q.Head() },
		"DeleteHead": func() { q.DeleteHead() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on empty queue did not panic", name)
				}
			}()
			f()
		}()
	}
}
