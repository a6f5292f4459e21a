package mesh

import (
	"sync/atomic"
	"testing"
	"time"

	"esti/internal/hardware"
)

func TestRankCoordRoundTrip(t *testing.T) {
	m := New(hardware.Torus{X: 2, Y: 3, Z: 4})
	for r := 0; r < m.Chips(); r++ {
		c := m.coordOf(r)
		if got := m.rankOf(c); got != r {
			t.Fatalf("rank %d → %v → %d", r, c, got)
		}
		if c.X >= 2 || c.Y >= 3 || c.Z >= 4 || c.X < 0 || c.Y < 0 || c.Z < 0 {
			t.Fatalf("coord %v out of bounds", c)
		}
	}
}

func TestRunExecutesAllChips(t *testing.T) {
	m := New(hardware.Torus{X: 2, Y: 2, Z: 2})
	var count atomic.Int32
	m.Run(func(c *Chip) { count.Add(1) })
	if count.Load() != 8 {
		t.Errorf("ran on %d chips, want 8", count.Load())
	}
}

func TestSendRecv(t *testing.T) {
	m := New(hardware.Torus{X: 2, Y: 1, Z: 1})
	m.Run(func(c *Chip) {
		peer := 1 - c.Rank
		c.Send(peer, 7, []float32{float32(c.Rank), 42})
		got := c.Recv(peer, 7)
		if got[0] != float32(peer) || got[1] != 42 {
			t.Errorf("chip %d received %v", c.Rank, got)
		}
	})
}

func TestSendCopiesPayload(t *testing.T) {
	m := New(hardware.Torus{X: 2, Y: 1, Z: 1})
	m.Run(func(c *Chip) {
		buf := []float32{float32(c.Rank)}
		c.Send(1-c.Rank, 1, buf)
		buf[0] = -1 // mutate after send
		got := c.Recv(1-c.Rank, 1)
		if got[0] != float32(1-c.Rank) {
			t.Errorf("chip %d: payload aliased sender buffer: %v", c.Rank, got)
		}
	})
}

func TestTagMatching(t *testing.T) {
	m := New(hardware.Torus{X: 2, Y: 1, Z: 1})
	m.Run(func(c *Chip) {
		peer := 1 - c.Rank
		// Send two tags; receive in reverse order.
		c.Send(peer, 100, []float32{1})
		c.Send(peer, 200, []float32{2})
		if got := c.Recv(peer, 200); got[0] != 2 {
			t.Errorf("tag 200 delivered %v", got)
		}
		if got := c.Recv(peer, 100); got[0] != 1 {
			t.Errorf("tag 100 delivered %v", got)
		}
	})
}

func TestByteAccounting(t *testing.T) {
	m := New(hardware.Torus{X: 2, Y: 1, Z: 1})
	m.Run(func(c *Chip) {
		c.Send(1-c.Rank, 1, make([]float32, 10))
		c.Recv(1-c.Rank, 1)
	})
	if got := m.BytesSent(); got != 2*10*4 {
		t.Errorf("BytesSent = %d, want 80", got)
	}
	if got := m.MessagesSent(); got != 2 {
		t.Errorf("MessagesSent = %d, want 2", got)
	}
	if got := m.Chip(0).BytesSent(); got != 40 {
		t.Errorf("chip 0 bytes = %d, want 40", got)
	}
	m.ResetCounters()
	if m.BytesSent() != 0 || m.Chip(0).BytesSent() != 0 {
		t.Error("counters not reset")
	}
}

func TestGroupRankAndPeer(t *testing.T) {
	m := New(hardware.Torus{X: 2, Y: 2, Z: 2})
	m.Run(func(c *Chip) {
		rank, size := c.GroupRank(hardware.GroupYZ)
		if size != 4 {
			t.Errorf("yz group size %d", size)
		}
		want := c.Coord.Y + 2*c.Coord.Z
		if rank != want {
			t.Errorf("chip %v: yz rank %d, want %d", c.Coord, rank, want)
		}
		// Peer lookup inverts group rank, holding x fixed.
		for i := 0; i < size; i++ {
			peer := m.coordOf(c.GroupPeer(hardware.GroupYZ, i))
			if peer.X != c.Coord.X {
				t.Errorf("yz peer changed x: %v from %v", peer, c.Coord)
			}
			if got := peer.Y + 2*peer.Z; got != i {
				t.Errorf("peer %d has group rank %d", i, got)
			}
		}
	})
}

func TestSelfSendPanics(t *testing.T) {
	m := New(hardware.Torus{X: 1, Y: 1, Z: 1})
	defer func() {
		if recover() == nil {
			t.Error("self-send should panic")
		}
	}()
	m.Run(func(c *Chip) {
		c.Send(0, 1, []float32{1})
	})
}

// A panic on one chip must not deadlock chips blocked in Recv: the poison
// propagates and Run re-raises.
func TestPanicPropagatesWithoutDeadlock(t *testing.T) {
	m := New(hardware.Torus{X: 2, Y: 1, Z: 1})
	defer func() {
		if recover() == nil {
			t.Error("expected panic to propagate from Run")
		}
	}()
	m.Run(func(c *Chip) {
		if c.Rank == 0 {
			panic("chip 0 failed")
		}
		c.Recv(0, 9) // would block forever without poisoning
	})
}

func TestNewPanicsOnInvalidTorus(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(hardware.Torus{X: 0, Y: 1, Z: 1})
}

func TestSendRecv8(t *testing.T) {
	m := New(hardware.Torus{X: 2, Y: 1, Z: 1})
	m.Run(func(c *Chip) {
		peer := 1 - c.Rank
		c.SendOwned8(peer, 7, []int8{int8(c.Rank), 42, -17}, 0.5)
		got, scale := c.Recv8(peer, 7)
		if got[0] != int8(peer) || got[1] != 42 || got[2] != -17 || scale != 0.5 {
			t.Errorf("chip %d received %v scale %g", c.Rank, got, scale)
		}
		c.Recycle8(got)
	})
}

// Int8 messages are charged byte-accurately — one byte per element plus
// four for the chunk scale — and counted separately from float32 traffic.
func TestByteAccountingPerDType(t *testing.T) {
	m := New(hardware.Torus{X: 2, Y: 1, Z: 1})
	m.Run(func(c *Chip) {
		peer := 1 - c.Rank
		c.Send(peer, 1, make([]float32, 10))       // 40 B
		c.SendOwned8(peer, 2, make([]int8, 10), 1) // 10 + 4 B
		c.Recv(peer, 1)
		c.Recv8(peer, 2)
	})
	if got := m.BytesSent(); got != 2*(40+14) {
		t.Errorf("BytesSent = %d, want %d", got, 2*(40+14))
	}
	if got := m.Int8BytesSent(); got != 2*14 {
		t.Errorf("Int8BytesSent = %d, want %d", got, 2*14)
	}
	if got := m.Chip(0).Int8BytesSent(); got != 14 {
		t.Errorf("chip 0 int8 bytes = %d, want 14", got)
	}
	m.ResetCounters()
	if m.BytesSent() != 0 || m.Int8BytesSent() != 0 {
		t.Error("counters not reset")
	}
}

// Receiving a message as the wrong wire format is a program error, not a
// silent misparse.
func TestRecvWrongFormatPanics(t *testing.T) {
	m := New(hardware.Torus{X: 2, Y: 1, Z: 1})
	defer func() {
		if recover() == nil {
			t.Error("expected panic for dtype-mismatched receive")
		}
	}()
	m.Run(func(c *Chip) {
		peer := 1 - c.Rank
		c.SendOwned8(peer, 3, []int8{1}, 1)
		c.Recv(peer, 3) // int8 message taken as float32
	})
}

// The tag-collision debug check: a second in-flight message with the same
// (src, tag) means two collectives were issued with overlapping op ids,
// and panics at the send instead of corrupting a gather downstream.
func TestTagCollisionPanics(t *testing.T) {
	m := New(hardware.Torus{X: 2, Y: 1, Z: 1})
	defer func() {
		if recover() == nil {
			t.Error("expected tag-collision panic")
		}
	}()
	m.Run(func(c *Chip) {
		if c.Rank == 0 {
			c.Send(1, 9, []float32{1})
			c.Send(1, 9, []float32{2}) // same (src, tag) still pending
		}
	})
}

// Inbox queues outlive a pass: once warm, a Run whose chips exchange
// matched, recycled messages allocates no more than a Run that sends
// nothing, because the queues keep their backing arrays between passes
// instead of growing them again.
func TestWarmRunQueuesDoNotAllocate(t *testing.T) {
	m := New(hardware.Torus{X: 2, Y: 2, Z: 2})
	n := m.Chips()
	payload := make([]float32, 16)
	exchange := func(c *Chip) {
		next, prev := (c.Rank+1)%n, (c.Rank+n-1)%n
		for tag := uint64(0); tag < 4; tag++ {
			c.Send(next, tag, payload)
		}
		for tag := uint64(0); tag < 4; tag++ {
			c.Recycle(c.Recv(prev, tag))
		}
	}
	empty := func(*Chip) {}
	for i := 0; i < 3; i++ {
		m.Run(exchange)
	}
	base := testing.AllocsPerRun(50, func() { m.Run(empty) })
	if got := testing.AllocsPerRun(50, func() { m.Run(exchange) }); got > base {
		t.Errorf("a warm Run exchanging messages allocates %v times, an empty Run %v", got, base)
	}
}

// A delivered message leaves nothing behind in the queue's backing array,
// so the payload it carried is not kept alive by the inbox.
func TestTakeClearsVacatedSlot(t *testing.T) {
	var b inbox
	b.init()
	b.put(Message{Src: 1, Tag: 1, Data: []float32{1}})
	b.put(Message{Src: 1, Tag: 2, Data: []float32{2}})
	b.take(1, 1)
	if vacated := b.pending[:2][1]; vacated.Data != nil {
		t.Errorf("vacated queue slot still holds %v", vacated)
	}
}

// Recycled int8 buffers are reused: steady-state int8 traffic draws from
// the pool instead of allocating.
func TestBuffer8PoolReuse(t *testing.T) {
	m := New(hardware.Torus{X: 1, Y: 1, Z: 1})
	c := m.Chip(0)
	b := c.Buffer8(100)
	b[0] = 9
	c.Recycle8(b)
	b2 := c.Buffer8(100)
	if &b2[0] != &b[0] {
		t.Error("Buffer8 did not reuse the recycled buffer")
	}
}

// The overlap counters: receive-blocking time is attributed only inside a
// Begin/EndOverlapOp window, consumer work only via NoteOverlapWork, the
// derived fraction is work/(work+wait) in [0, 1] (0 before any streamed
// op), and ResetCounters clears both.
func TestOverlapCounters(t *testing.T) {
	m := New(hardware.Torus{X: 2, Y: 1, Z: 1})
	if m.MeasuredOverlapFrac() != 0 {
		t.Error("fresh mesh should measure zero overlap")
	}
	m.Run(func(c *Chip) {
		peer := 1 - c.Rank
		// Outside a window: blocked receives do not count as overlap wait.
		c.Send(peer, 1, []float32{1})
		c.Recv(peer, 1)
	})
	if m.OverlapWaitNS() != 0 || m.OverlapWorkNS() != 0 {
		t.Fatalf("counters moved outside an overlap window: wait %d, work %d",
			m.OverlapWaitNS(), m.OverlapWorkNS())
	}
	m.Run(func(c *Chip) {
		peer := 1 - c.Rank
		c.BeginOverlapOp()
		defer c.EndOverlapOp()
		if c.Rank == 0 {
			time.Sleep(2 * time.Millisecond) // make chip 1 block in its receive
		}
		c.Send(peer, 2, []float32{1})
		c.Recv(peer, 2)
		c.NoteOverlapWork(time.Millisecond)
	})
	if m.OverlapWaitNS() <= 0 {
		t.Error("blocked in-window receive recorded no overlap wait")
	}
	if want := 2 * time.Millisecond.Nanoseconds(); m.OverlapWorkNS() != want {
		t.Errorf("overlap work %d ns, want %d", m.OverlapWorkNS(), want)
	}
	if f := m.MeasuredOverlapFrac(); f <= 0 || f > 1 {
		t.Errorf("measured overlap fraction %g outside (0, 1]", f)
	}
	m.ResetCounters()
	if m.OverlapWaitNS() != 0 || m.OverlapWorkNS() != 0 || m.MeasuredOverlapFrac() != 0 {
		t.Error("ResetCounters did not clear overlap counters")
	}
}
