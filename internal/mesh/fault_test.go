package mesh

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"esti/internal/hardware"
)

// settleGoroutines fails t unless the goroutine count falls back to base
// within a second. A chip goroutine may still be exiting for a moment
// after Run returns (its WaitGroup is done before it is gone), so the
// count is polled, not read once.
func settleGoroutines(t testing.TB, base int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", base, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// noLeaks records the goroutine count and checks, when t ends, that it
// came back: no chip goroutine outlives its Run.
func noLeaks(t testing.TB) {
	base := runtime.NumGoroutine()
	t.Cleanup(func() { settleGoroutines(t, base) })
}

// faultAt sets m's fault hook so that chip r panics with v at its k-th
// send or receive (counting from 0) from now on. With park set, the chip
// first waits until some other chip is parked in a receive, or 20 ms have
// passed (its peers may all have finished), so the poison finds parked
// receivers as well as yielding ones, and sets *sawParked to whether it
// saw one. The count is touched only by chip r's goroutine.
func faultAt(m *Mesh, r, k int, v any, park bool, sawParked *bool) {
	n := 0
	m.fault = func(c *Chip) {
		if c.Rank != r {
			return
		}
		if n == k {
			if park {
				*sawParked = waitForParkedReceiver(20 * time.Millisecond)
			}
			panic(v)
		}
		n++
	}
}

// waitForParkedReceiver reports whether, within d, some goroutine's stack
// shows it parked in cond.Wait under inbox.take.
func waitForParkedReceiver(d time.Duration) bool {
	buf := make([]byte, 1<<20)
	for end := time.Now().Add(d); time.Now().Before(end); time.Sleep(100 * time.Microsecond) {
		for _, g := range bytes.Split(buf[:runtime.Stack(buf, true)], []byte("\n\n")) {
			if bytes.Contains(g, []byte("sync.(*Cond).Wait")) && bytes.Contains(g, []byte("mesh.(*inbox).take")) {
				return true
			}
		}
	}
	return false
}

// ringRounds is how many ring steps exchange takes before its all-to-all.
const ringRounds = 2

// exchange is the fault test's program: ringRounds steps of a ring, each
// sending the chip's two running values to the next chip and folding in
// the previous chip's, then one all-to-all round in which every chip
// sends each peer its own scaling of the values. out[c.Rank] receives
// what the all-to-all delivered, in peer order. A chip makes 2·ringRounds
// + 2·(n-1) sends and receives, the sends of each round first.
func exchange(out [][]float32) func(c *Chip) {
	return func(c *Chip) {
		n := c.Mesh().Chips()
		next, prev := (c.Rank+1)%n, (c.Rank+n-1)%n
		acc := []float32{float32(c.Rank) + 0.5, 1 / float32(c.Rank+3)}
		for r := 0; r < ringRounds; r++ {
			c.Send(next, uint64(r), acc)
			got := c.Recv(prev, uint64(r))
			for i := range acc {
				acc[i] = acc[i]*0.75 + got[i]
			}
			c.Recycle(got)
		}
		for p := 0; p < n; p++ {
			if p != c.Rank {
				c.Send(p, ringRounds, []float32{acc[0] * float32(p+1), acc[1] - float32(p)/7})
			}
		}
		res := out[c.Rank][:0]
		for p := 0; p < n; p++ {
			if p != c.Rank {
				got := c.Recv(p, ringRounds)
				res = append(res, got...)
				c.Recycle(got)
			}
		}
		out[c.Rank] = res
	}
}

// runBefore runs fn on m in a goroutine and returns what Run raised, or
// fails t if Run has not returned within d.
func runBefore(t *testing.T, m *Mesh, fn func(*Chip), d time.Duration) (raised any) {
	t.Helper()
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		m.Run(fn)
	}()
	select {
	case raised = <-done:
		return raised
	case <-time.After(d):
		t.Fatalf("Run has not returned after %v", d)
		return nil
	}
}

// chipFault is the value each injected fault panics with.
type chipFault struct{ rank, k int }

// TestChipFaultAtEveryMessage fails every chip at every one of its sends
// and receives of a ring-plus-all-to-all program, on 2×1×1, 2×2×1 and
// 2×2×2, at GOMAXPROCS 1, 2 and 4, once at once and once after a peer has
// parked. Each time Run must re-raise the injected value within 10 s,
// whether the peers were yielding or parked in their receives; no
// goroutine may be left; and the next Run on the same mesh must give
// results bit-equal to a fresh mesh's.
func TestChipFaultAtEveryMessage(t *testing.T) {
	tori := []hardware.Torus{{X: 2, Y: 1, Z: 1}, {X: 2, Y: 2, Z: 1}, {X: 2, Y: 2, Z: 2}}
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			parked := 0
			for _, torus := range tori {
				n := torus.Chips()
				want := make([][]float32, n)
				New(torus).Run(exchange(want))
				got := make([][]float32, n)
				m := New(torus)
				ops := 2*ringRounds + 2*(n-1)
				base := runtime.NumGoroutine()
				for r := 0; r < n; r++ {
					for k := 0; k < ops; k++ {
						for _, park := range []bool{false, true} {
							v := chipFault{r, k}
							var sawParked bool
							faultAt(m, r, k, v, park, &sawParked)
							if raised := runBefore(t, m, exchange(got), 10*time.Second); raised != v {
								t.Fatalf("%v: chip %d faulted at message %d (park %v): Run raised %v, want %v", torus, r, k, park, raised, v)
							}
							if sawParked {
								parked++
							}
							m.fault = nil
							settleGoroutines(t, base)
							if raised := runBefore(t, m, exchange(got), 10*time.Second); raised != nil {
								t.Fatalf("%v: the Run after chip %d faulted at message %d raised %v", torus, r, k, raised)
							}
							for c := range want {
								for i := range want[c] {
									if len(got[c]) != len(want[c]) || math.Float32bits(got[c][i]) != math.Float32bits(want[c][i]) {
										t.Fatalf("%v: after chip %d faulted at message %d, chip %d received %v, a fresh mesh %v", torus, r, k, c, got[c], want[c])
									}
								}
							}
						}
					}
				}
			}
			if parked == 0 {
				t.Error("no fault found a peer parked in its receive")
			}
			t.Logf("%d faults found a peer parked in its receive", parked)
		})
	}
}
