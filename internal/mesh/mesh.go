// Package mesh simulates a slice of accelerator chips on a 3D torus: one
// goroutine per chip, point-to-point typed messages between chips, and
// byte-accurate per-chip traffic accounting. The collective algorithms in
// package collective run on top of it, and the sharded engine in package
// engine runs an SPMD program on every chip.
//
// Messages carry either a float32 payload (4 bytes per element on the
// wire) or a per-chunk-scaled int8 payload (1 byte per element plus one
// 4-byte float32 scale per message) — the wire format package collective's
// int8 payload mode transmits, per the paper's Appendix A charging
// collectives by bytes rather than elements. Each format has its own send
// and receive calls and its own recycled buffer pool; the traffic counters
// record the true wire bytes of whichever format moved, split per dtype so
// tests can assert exact volumes against package commcost for both.
//
// The fabric is deliberately faithful to the paper's cost model: all traffic
// is explicit messages whose byte counts the tests compare against the
// closed-form volumes of package commcost.
package mesh

import (
	"fmt"
	"sync"
	"time"

	"esti/internal/hardware"
)

// Coord is a chip position on the torus.
type Coord struct {
	X, Y, Z int
}

// Message is a tagged payload between two chips in exactly one of the two
// wire formats: float32 (Data) or per-chunk-scaled int8 (Data8 + Scale).
// Tags disambiguate interleaved collectives when a fast sender runs ahead
// of its receiver.
type Message struct {
	Src  int
	Tag  uint64
	Data []float32
	// Data8 is the int8 payload (value ≈ int8 · Scale); Scale travels with
	// the chunk and is charged as 4 wire bytes.
	Data8 []int8
	Scale float32
}

// Mesh is the simulated slice.
type Mesh struct {
	Torus hardware.Torus
	chips []*Chip

	maxPerChip int // inbox soft cap (debugging aid; 0 = unlimited)
}

// poolBucket returns the smallest b with 1<<b >= n.
func poolBucket(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	return b
}

// New builds a mesh for a torus shape.
func New(t hardware.Torus) *Mesh {
	if !t.Valid() {
		panic(fmt.Sprintf("mesh: invalid torus %v", t))
	}
	m := &Mesh{Torus: t}
	n := t.Chips()
	m.chips = make([]*Chip, n)
	for r := 0; r < n; r++ {
		m.chips[r] = &Chip{
			mesh:  m,
			Rank:  r,
			Coord: m.coordOf(r),
		}
		m.chips[r].inbox.init()
	}
	return m
}

// Chips returns the chip count.
func (m *Mesh) Chips() int { return m.Torus.Chips() }

// Chip returns chip by rank.
func (m *Mesh) Chip(rank int) *Chip { return m.chips[rank] }

// rankOf linearizes a coordinate x-major (x fastest).
func (m *Mesh) rankOf(c Coord) int {
	t := m.Torus
	return c.X + t.X*(c.Y+t.Y*c.Z)
}

func (m *Mesh) coordOf(rank int) Coord {
	t := m.Torus
	return Coord{
		X: rank % t.X,
		Y: (rank / t.X) % t.Y,
		Z: rank / (t.X * t.Y),
	}
}

// BytesSent is the total true wire volume sent by all chips: 4 bytes per
// float32 element, and 1 byte per int8 element plus 4 per chunk scale.
// Counters are accumulated per chip without atomics — each is written only
// by its chip's goroutine — so reading them is only meaningful outside Run
// (which is when the tests and experiments do).
func (m *Mesh) BytesSent() int64 {
	var total int64
	for _, c := range m.chips {
		total += c.bytesSent
	}
	return total
}

// Int8BytesSent is the portion of BytesSent carried by int8 messages
// (payload bytes plus their chunk scales). Same read contract as
// BytesSent. BytesSent-Int8BytesSent is therefore the float32 portion,
// which lets tests pin exactly which collectives switched wire format.
func (m *Mesh) Int8BytesSent() int64 {
	var total int64
	for _, c := range m.chips {
		total += c.bytesSent8
	}
	return total
}

// MessagesSent is the total message count (same read contract as
// BytesSent).
func (m *Mesh) MessagesSent() int64 {
	var total int64
	for _, c := range m.chips {
		total += c.msgsSent
	}
	return total
}

// ResetCounters zeroes the per-chip traffic and overlap counters.
func (m *Mesh) ResetCounters() {
	for _, c := range m.chips {
		c.bytesSent = 0
		c.bytesSent8 = 0
		c.msgsSent = 0
		c.overlapWaitNS = 0
		c.overlapWorkNS = 0
	}
}

// OverlapWaitNS is the total time chips spent blocked in receives inside
// streamed-collective windows, and OverlapWorkNS the total time their
// consumer callbacks computed there (same read contract as BytesSent).
func (m *Mesh) OverlapWaitNS() int64 {
	var total int64
	for _, c := range m.chips {
		total += c.overlapWaitNS
	}
	return total
}

// OverlapWorkNS is the consumer-compute half of the overlap counters; see
// OverlapWaitNS.
func (m *Mesh) OverlapWorkNS() int64 {
	var total int64
	for _, c := range m.chips {
		total += c.overlapWorkNS
	}
	return total
}

// MeasuredOverlapFrac is the fraction of streamed-collective wall time the
// chips spent computing rather than waiting on the wire:
// work / (work + wait), or 0 before any streamed op has run. 1.0 means the
// chunk-stream consumers fully hid the transfer time behind compute; the
// analytic counterpart is perf.Knobs.OverlapFrac.
func (m *Mesh) MeasuredOverlapFrac() float64 {
	work, wait := m.OverlapWorkNS(), m.OverlapWaitNS()
	if work == 0 {
		return 0
	}
	return float64(work) / float64(work+wait)
}

// Run executes fn on every chip concurrently (SPMD) and waits for all chips
// to finish. A panic on any chip poisons every inbox, so that a chip blocked
// in a receive the panicking chip will never match panics too instead of
// deadlocking, and is re-raised on the caller once every chip has returned;
// programs are expected to be deterministic and matched. A single-chip mesh
// runs fn inline — there are no peers to message or poison, so the
// goroutine, WaitGroup, and bookkeeping would be pure overhead on the one
// path that can be made allocation-free end to end.
func (m *Mesh) Run(fn func(c *Chip)) {
	if len(m.chips) == 1 {
		fn(m.chips[0])
		return
	}
	var wg sync.WaitGroup
	panics := make([]any, len(m.chips))
	for i, c := range m.chips {
		wg.Add(1)
		go func(i int, c *Chip) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[i] = r
					c.inbox.poison(r)
					// Poison every other inbox so matched receives
					// unblock instead of deadlocking.
					for _, o := range m.chips {
						o.inbox.poison(r)
					}
				}
			}()
			fn(c)
		}(i, c)
	}
	wg.Wait()
	for _, c := range m.chips {
		c.inbox.clearPoison()
	}
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// Chip is one simulated accelerator.
type Chip struct {
	mesh  *Mesh
	Rank  int
	Coord Coord

	inbox      inbox
	bytesSent  int64 // true wire bytes, all formats (chip-goroutine only)
	bytesSent8 int64 // int8 portion of bytesSent
	msgsSent   int64

	// Overlap instrumentation for the streamed collectives (package
	// collective). While a streamed op's window is open (BeginOverlapOp),
	// blocked-receive time accrues to overlapWaitNS and consumer-callback
	// time (NoteOverlapWork) to overlapWorkNS; their ratio is the measured
	// overlap fraction. Chip-goroutine only, like the traffic counters.
	overlapOpen   bool
	overlapWaitNS int64
	overlapWorkNS int64

	// Message buffer free lists, bucketed by power-of-two capacity. An
	// SPMD step sends the same message sizes every iteration, so
	// recycling delivered payloads (Recycle) makes steady-state traffic
	// allocation-free instead of pure GC churn. Each chip's pool is
	// touched only by its own goroutine (Send draws from the sender,
	// Recycle returns to the consumer), so no lock is needed; buffers
	// migrate between chips and that's fine. Best-effort: buffers that
	// are never recycled are simply collected. pool8 is the int8 twin:
	// quantized payloads and the collectives' encode scratch draw from it
	// so int8-wire steady-state traffic is allocation-free too.
	pool  [31][][]float32
	pool8 [31][][]int8

	// groups caches per-group ranks and peer tables (groupInfoFor).
	groups []groupInfo
}

// Mesh returns the owning mesh.
func (c *Chip) Mesh() *Mesh { return c.mesh }

// BytesSent is this chip's total sent wire bytes (read outside Run).
func (c *Chip) BytesSent() int64 { return c.bytesSent }

// Int8BytesSent is the int8-message portion of this chip's BytesSent.
func (c *Chip) Int8BytesSent() int64 { return c.bytesSent8 }

// Buffer returns a reusable scratch buffer of length n from this chip's
// message pool. Collectives allocate their results from it so receivers
// can give them back with Recycle once consumed. Must be called from the
// chip's own goroutine (as all chip operations are).
func (c *Chip) Buffer(n int) []float32 {
	if n == 0 {
		return nil
	}
	b := poolBucket(n)
	free := c.pool[b]
	if len(free) > 0 {
		buf := free[len(free)-1]
		c.pool[b] = free[:len(free)-1]
		return buf[:n]
	}
	return make([]float32, n, 1<<b)
}

// Recycle returns a buffer obtained from Recv, Buffer, or a collective to
// this chip's pool. Callers must not touch the buffer afterwards;
// recycling is optional (unrecycled buffers are garbage collected).
func (c *Chip) Recycle(buf []float32) {
	n := cap(buf)
	if n == 0 {
		return
	}
	// File under the largest bucket the capacity fully covers, so Buffer
	// can always reslice what it pops to the bucket's maximum length.
	b := poolBucket(n)
	if 1<<b > n {
		b--
	}
	c.pool[b] = append(c.pool[b], buf[:0])
}

// Buffer8 is Buffer for int8 payloads: a reusable length-n scratch from
// this chip's int8 pool, used by the collectives to quantize chunks before
// transmission and recycled by receivers after dequantization.
func (c *Chip) Buffer8(n int) []int8 {
	if n == 0 {
		return nil
	}
	b := poolBucket(n)
	free := c.pool8[b]
	if len(free) > 0 {
		buf := free[len(free)-1]
		c.pool8[b] = free[:len(free)-1]
		return buf[:n]
	}
	return make([]int8, n, 1<<b)
}

// Recycle8 returns an int8 buffer obtained from Recv8 or Buffer8 to this
// chip's pool, under the same contract as Recycle.
func (c *Chip) Recycle8(buf []int8) {
	n := cap(buf)
	if n == 0 {
		return
	}
	b := poolBucket(n)
	if 1<<b > n {
		b--
	}
	c.pool8[b] = append(c.pool8[b], buf[:0])
}

// Send delivers data to dst with a tag. The payload is copied (into a
// pooled buffer), so senders may reuse their buffer.
func (c *Chip) Send(dst int, tag uint64, data []float32) {
	if dst == c.Rank {
		panic("mesh: self-send")
	}
	cp := c.Buffer(len(data))
	copy(cp, data)
	c.deliver(dst, tag, cp)
}

// SendOwned delivers buf to dst, transferring ownership instead of
// copying: the sender must not touch buf afterwards. It exists for the
// store-and-forward inner loop of ring collectives, where a chip relays a
// buffer it just received and will never read again — the relay's copy is
// pure overhead the real hardware doesn't pay either. Traffic accounting
// is identical to Send.
func (c *Chip) SendOwned(dst int, tag uint64, buf []float32) {
	if dst == c.Rank {
		panic("mesh: self-send")
	}
	c.deliver(dst, tag, buf)
}

func (c *Chip) deliver(dst int, tag uint64, payload []float32) {
	c.bytesSent += int64(4 * len(payload))
	c.msgsSent++
	c.mesh.chips[dst].inbox.put(Message{Src: c.Rank, Tag: tag, Data: payload})
}

// Send8 delivers a per-chunk-scaled int8 payload to dst with a tag, copying
// data into a pooled buffer like Send. On-wire accounting is byte-accurate:
// one byte per element plus four for the chunk scale.
func (c *Chip) Send8(dst int, tag uint64, data []int8, scale float32) {
	if dst == c.Rank {
		panic("mesh: self-send")
	}
	cp := c.Buffer8(len(data))
	copy(cp, data)
	c.deliver8(dst, tag, cp, scale)
}

// SendOwned8 is SendOwned for int8 payloads: ownership of buf transfers to
// the receiver with no copy — the relay form of the int8 ring collectives,
// which forward received chunks untouched (so a gathered chunk is quantized
// exactly once, at its source, however many hops it travels).
func (c *Chip) SendOwned8(dst int, tag uint64, buf []int8, scale float32) {
	if dst == c.Rank {
		panic("mesh: self-send")
	}
	c.deliver8(dst, tag, buf, scale)
}

func (c *Chip) deliver8(dst int, tag uint64, payload []int8, scale float32) {
	wire := int64(len(payload)) + 4 // elements + the float32 scale
	c.bytesSent += wire
	c.bytesSent8 += wire
	c.msgsSent++
	c.mesh.chips[dst].inbox.put(Message{Src: c.Rank, Tag: tag, Data8: payload, Scale: scale})
}

// Recv blocks until a message with the given source and tag arrives. It is
// a program error for the matching message to be an int8 payload — the
// SPMD program knows each tag's wire format.
func (c *Chip) Recv(src int, tag uint64) []float32 {
	m := c.take(src, tag)
	if m.Data8 != nil {
		panic(fmt.Sprintf("mesh: int8 message (src %d, tag %#x) received as float32", src, tag))
	}
	return m.Data
}

// Recv8 blocks until an int8 message with the given source and tag arrives
// and returns its payload and chunk scale.
func (c *Chip) Recv8(src int, tag uint64) ([]int8, float32) {
	m := c.take(src, tag)
	if m.Data != nil {
		panic(fmt.Sprintf("mesh: float32 message (src %d, tag %#x) received as int8", src, tag))
	}
	return m.Data8, m.Scale
}

// take receives with overlap accounting: inside a streamed-collective
// window, blocked time counts toward the chip's overlap wait.
func (c *Chip) take(src int, tag uint64) Message {
	if !c.overlapOpen {
		return c.inbox.take(src, tag)
	}
	start := time.Now()
	m := c.inbox.take(src, tag)
	c.overlapWaitNS += time.Since(start).Nanoseconds()
	return m
}

// BeginOverlapOp opens a streamed-collective window: until EndOverlapOp,
// this chip's blocked-receive time accrues to the overlap wait counter.
// Must bracket exactly one streamed collective; windows do not nest.
func (c *Chip) BeginOverlapOp() { c.overlapOpen = true }

// EndOverlapOp closes the window opened by BeginOverlapOp.
func (c *Chip) EndOverlapOp() { c.overlapOpen = false }

// NoteOverlapWork credits consumer-callback compute time to the overlap
// counters (called by the streamed collectives around each chunk handoff).
func (c *Chip) NoteOverlapWork(d time.Duration) { c.overlapWorkNS += d.Nanoseconds() }

// groupInfo caches a chip's view of one axis group: its rank, the group
// size, and the mesh rank of every group member. Groups are the handful of
// package-level AxisGroup values (X, YZ, XYZ, ...); identity is the
// slice's first-element pointer, so lookup is a short linear scan with no
// allocation. The cache is only touched by the chip's goroutine.
type groupInfo struct {
	key    *hardware.Axis
	keyLen int
	rank   int
	size   int
	peers  []int
}

func (c *Chip) groupInfoFor(g hardware.AxisGroup) *groupInfo {
	key := &g[0]
	for i := range c.groups {
		e := &c.groups[i]
		if e.key == key && e.keyLen == len(g) {
			return e
		}
	}
	size := g.Size(c.mesh.Torus)
	rank := 0
	stride := 1
	for _, a := range g {
		rank += c.axis(a) * stride
		stride *= c.mesh.Torus.Size(a)
	}
	peers := make([]int, size)
	for idx := 0; idx < size; idx++ {
		co := c.Coord
		rem := idx
		for _, a := range g {
			s := c.mesh.Torus.Size(a)
			co = setAxis(co, a, rem%s)
			rem /= s
		}
		peers[idx] = c.mesh.rankOf(co)
	}
	c.groups = append(c.groups, groupInfo{key: key, keyLen: len(g), rank: rank, size: size, peers: peers})
	return &c.groups[len(c.groups)-1]
}

// GroupRank returns this chip's index within the axis group containing it
// (axes in group order, first axis fastest), and the group size.
func (c *Chip) GroupRank(g hardware.AxisGroup) (rank, size int) {
	if len(g) == 0 {
		return 0, 1
	}
	gi := c.groupInfoFor(g)
	return gi.rank, gi.size
}

// GroupPeer returns the rank (mesh-wide) of the group member with the given
// group index, holding all non-group coordinates at this chip's values.
func (c *Chip) GroupPeer(g hardware.AxisGroup, idx int) int {
	if len(g) == 0 {
		return c.Rank
	}
	return c.groupInfoFor(g).peers[idx]
}

func (c *Chip) axis(a hardware.Axis) int {
	switch a {
	case hardware.AxisX:
		return c.Coord.X
	case hardware.AxisY:
		return c.Coord.Y
	case hardware.AxisZ:
		return c.Coord.Z
	}
	panic("mesh: bad axis")
}

func setAxis(c Coord, a hardware.Axis, v int) Coord {
	switch a {
	case hardware.AxisX:
		c.X = v
	case hardware.AxisY:
		c.Y = v
	case hardware.AxisZ:
		c.Z = v
	default:
		panic("mesh: bad axis")
	}
	return c
}

// inbox is a condition-variable mailbox with (src, tag) matching.
type inbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending []Message
	poisonV any
}

func (b *inbox) init() {
	b.cond = sync.NewCond(&b.mu)
}

func (b *inbox) put(m Message) {
	b.mu.Lock()
	// Tag-collision debug check: in a correct SPMD program every (src,
	// tag) pair is in flight at most once — each collective step's message
	// is consumed before the same op id can legally reappear. A duplicate
	// pending pair therefore always means two collectives were issued with
	// overlapping op ids (the bug class Op.Advance exists to prevent), and
	// is caught here instead of silently corrupting a gather. The scan is
	// cheap: pending queues hold at most a few messages between matched
	// sends and receives.
	for _, p := range b.pending {
		if p.Src == m.Src && p.Tag == m.Tag {
			b.mu.Unlock()
			panic(fmt.Sprintf("mesh: tag collision — message (src %d, tag %#x) already in flight; overlapping collective op ids?", m.Src, m.Tag))
		}
	}
	b.pending = append(b.pending, m)
	b.mu.Unlock()
	b.cond.Broadcast()
}

func (b *inbox) take(src int, tag uint64) Message {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if b.poisonV != nil {
			panic(b.poisonV)
		}
		for i, m := range b.pending {
			if m.Src == src && m.Tag == tag {
				b.pending = append(b.pending[:i], b.pending[i+1:]...)
				return m
			}
		}
		b.cond.Wait()
	}
}

func (b *inbox) poison(v any) {
	b.mu.Lock()
	if b.poisonV == nil {
		b.poisonV = v
	}
	b.mu.Unlock()
	b.cond.Broadcast()
}

func (b *inbox) clearPoison() {
	b.mu.Lock()
	b.poisonV = nil
	b.pending = nil
	b.mu.Unlock()
}
