package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"

	"esti/internal/simd"
)

// Worker pool for the GEMM kernels. Large matmuls split their rows, or a
// product one tile high its strips, into one range per worker and run them
// on a fixed set of long-lived goroutines sized by GOMAXPROCS; small
// matmuls (and any matmul when only one worker is configured) run serially
// in the caller and never touch the pool. A split matmul pays two channel
// operations per range and allocates nothing: its operands and its
// completion count travel in a job record taken from a free list. The pool
// is started lazily on first parallel use and its goroutine count never
// grows afterwards — the property tests assert repeated parallel matmuls
// leak no goroutines.

// parallelMinFlops is the approximate multiply-add count below which
// splitting a matmul across workers costs more than it saves. At decode
// height (eight rows) both projections of bench/'s one-chip workloads
// clear it, and so does shared_prefix_mix's 4-chip in-projection
// ([8,128]·[128,352]); chat_mesh8's 8-chip products and every per-chunk
// out-projection of the sharded workloads sit below it.
const parallelMinFlops = 1 << 17

var pool struct {
	mu      sync.Mutex
	tasks   chan poolTask
	free    []*rowJob    // idle job records
	started int          // goroutines running; fixed after first start
	max     atomic.Int32 // configured parallelism; 0 = GOMAXPROCS at first use
}

// rowOp is a matmul's operands by value, so that a split one makes no
// caller's *Mat escape: GemmInto's a·b, cut by rows or with strips set by
// strips, or with bt set MatMulTInto's a·bᵀ.
type rowOp struct {
	dst, a Mat
	b      simd.GemmB
	bt     Mat
	acc    bool
	strips bool
}

// rowJob is one split matmul in flight: what to compute, and the count of
// ranges still out with the workers.
type rowJob struct {
	op      rowOp
	pending sync.WaitGroup
}

// poolTask is rows, or strips, [lo, hi) of a job.
type poolTask struct {
	job    *rowJob
	lo, hi int
}

// SetWorkers bounds how many row ranges a parallel kernel splits into (1 =
// always serial) and returns the previous setting. It exists for callers
// that need deterministic execution — allocation tests, embedders running
// their own scheduler — and for tests that force the parallel path on a
// single-core machine. Already-started pool goroutines are not stopped;
// they idle when the bound is lowered.
func SetWorkers(n int) int {
	if n < 1 {
		n = 1
	}
	prev := pool.max.Swap(int32(n))
	if prev == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return int(prev)
}

// Workers reports the current parallelism bound. It is a single atomic
// load: shouldParallel consults it on every matmul, concurrently from
// every simulated chip, so it must not contend on a lock.
func Workers() int {
	if max := pool.max.Load(); max != 0 {
		return int(max)
	}
	return runtime.GOMAXPROCS(0)
}

// startJob returns the task channel and an idle job record. The worker
// goroutines start on the first call, capped at GOMAXPROCS at that time
// (raising SetWorkers beyond it later only affects how many ranges a matmul
// is cut into, not goroutines); the free list grows to the number of
// matmuls ever in flight at once.
func startJob(want int) (chan poolTask, *rowJob) {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	if pool.tasks == nil {
		n := runtime.GOMAXPROCS(0)
		if want > n {
			n = want
		}
		pool.tasks = make(chan poolTask, 4*n)
		for i := 0; i < n; i++ {
			go poolWorker(pool.tasks)
		}
		pool.started = n
	}
	if n := len(pool.free); n > 0 {
		j := pool.free[n-1]
		pool.free = pool.free[:n-1]
		return pool.tasks, j
	}
	return pool.tasks, new(rowJob)
}

func poolWorker(tasks chan poolTask) {
	for t := range tasks {
		t.job.op.run(t.lo, t.hi)
		t.job.pending.Done()
	}
}

// shouldParallel reports whether a kernel of units rows (or strips) and
// flops multiply-adds clears the pool's split thresholds.
func shouldParallel(units, flops int) bool {
	return units >= 2 && flops >= parallelMinFlops && Workers() >= 2
}

// run computes rows, or strips, [lo, hi) of op.
func (op *rowOp) run(lo, hi int) {
	switch {
	case op.bt.Data != nil:
		matMulTRows(&op.dst, &op.a, &op.bt, lo, hi)
	case op.strips:
		gemmStrips(&op.dst, &op.a, op.b, lo, hi, op.acc)
	default:
		gemmRows(&op.dst, &op.a, op.b, lo, hi, op.acc)
	}
}

// split computes all units rows, or strips, of op — the caller has checked
// shouldParallel — one contiguous range per worker. The caller always
// executes the last range itself, so at least one never waits on the pool.
func split(op rowOp, units int) {
	w := Workers()
	ranges := min(w, units)
	tasks, j := startJob(w)
	j.op = op
	chunk := (units + ranges - 1) / ranges
	lo := 0
	for lo+chunk < units {
		j.pending.Add(1)
		tasks <- poolTask{job: j, lo: lo, hi: lo + chunk}
		lo += chunk
	}
	j.op.run(lo, units)
	j.pending.Wait()

	j.op = rowOp{} // an idle record must not pin a caller's buffers
	pool.mu.Lock()
	pool.free = append(pool.free, j)
	pool.mu.Unlock()
}
