package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"

	"esti/internal/simd"
)

// Worker pool for the GEMM kernels and the engine's attention walk. Work
// that is large enough splits into one contiguous range per worker — a
// matmul's rows, a product one tile high its strips, the query rows of a
// chip's attention walk —
// and runs on a fixed set of long-lived goroutines sized by GOMAXPROCS;
// small work (and any work when only one worker is configured) runs
// serially in the caller and never touches the pool. A split pays two
// channel operations per range and allocates nothing: what to run and the
// completion count travel in a job record taken from a free list, and a
// Task is a pointer its owner bound once. The pool is started lazily on
// first parallel use and its goroutine count never grows afterwards — the
// property tests assert repeated splits leak no goroutines.

// parallelMinFlops is the approximate multiply-add count below which
// splitting a GEMM across workers costs more than it saves. At decode height
// (eight rows) both projections of bench/'s one-chip workloads clear it,
// and so does shared_prefix_mix's 4-chip in-projection ([8,128]·[128,352]);
// chat_mesh8's 8-chip products and every per-chunk out-projection of the
// sharded workloads sit below it. Other work split on the pool brings its
// own break-even: the engine's attention walk splits only from four times
// this size (engine's walkMinFlops).
const parallelMinFlops = 1 << 17

var pool struct {
	mu      sync.Mutex
	tasks   chan poolTask
	free    []*job       // idle job records
	started int          // goroutines running; fixed after first start
	max     atomic.Int32 // configured parallelism; 0 = GOMAXPROCS
}

// Task is work over units [0, n) that Split can cut into contiguous ranges
// and run side by side. Run computes units [lo, hi) as range number part of
// the split: ranges are numbered from 0 in order, each runs on one
// goroutine, and no two ranges of one split share a number, so a task can
// keep per-part scratch indexed by it.
type Task interface {
	Run(part, lo, hi int)
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

// job is one split in flight: the task, the operands when the task is a
// matmul (task is then &op, so the caller's operands are copied, not
// pointed to), and the count of ranges still out with the workers.
type job struct {
	task    Task
	op      rowOp
	pending sync.WaitGroup
}

// poolTask is range part, units [lo, hi), of a job.
type poolTask struct {
	job          *job
	part, lo, hi int
}

// SetWorkers bounds how many ranges a split cuts its work into (1 = always
// serial; below 1, the default: follow GOMAXPROCS) and returns the previous
// setting in the same terms, so defer SetWorkers(SetWorkers(n)) restores
// exactly what was set before. It exists for callers that need
// deterministic execution — allocation tests, embedders running their own
// scheduler — and for tests that force the parallel path on a single-core
// machine. Already-started pool goroutines are not stopped; they idle when
// the bound is lowered.
func SetWorkers(n int) int {
	return int(pool.max.Swap(int32(max(n, 0))))
}

// Workers reports the current parallelism bound. A set bound is one atomic
// load; the default reads GOMAXPROCS, which the runtime serves under its
// scheduler lock, so parts reads it only for work past the size checks,
// once per candidate split.
func Workers() int {
	if max := pool.max.Load(); max != 0 {
		return int(max)
	}
	return runtime.GOMAXPROCS(0)
}

// startJob returns the task channel and an idle job record. The worker
// goroutines start on the first call, capped at GOMAXPROCS at that time
// (raising SetWorkers beyond it later only affects how many ranges work is
// cut into, not goroutines); the free list grows to the number of splits
// ever in flight at once.
func startJob(want int) (chan poolTask, *job) {
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
	return pool.tasks, new(job)
}

func poolWorker(tasks chan poolTask) {
	for t := range tasks {
		t.job.task.Run(t.part, t.lo, t.hi)
		t.job.pending.Done()
	}
}

// parts returns how many ranges work of units rows or strips and
// flops multiply-adds is cut into: min(Workers(), units) when it has two
// units or more and at least minFlops multiply-adds, its kind's break-even,
// and 1 — run serially in the caller — otherwise.
func parts(units, flops, minFlops int) int {
	if units < 2 || flops < minFlops {
		return 1
	}
	return min(Workers(), units)
}

// Split runs t over units [0, units) of about flops multiply-adds: one
// contiguous range for each of parts(units, flops, minFlops) workers, or,
// when that is 1, in the caller as t.Run(0, 0, units). minFlops is the size
// from which splitting t's kind of work pays, as measured by its owner. It
// returns when every range is done. t must not call Split itself: a worker
// waiting on a nested split could leave it no worker.
func Split(t Task, units, flops, minFlops int) {
	w := parts(units, flops, minFlops)
	if w < 2 {
		t.Run(0, 0, units)
		return
	}
	tasks, j := startJob(w)
	j.task = t
	j.run(tasks, w, units)
}

// Run computes rows, or strips, [lo, hi) of op; a matmul's ranges need no
// per-part state.
func (op *rowOp) Run(_, lo, hi int) {
	switch {
	case op.bt.Data != nil:
		matMulTRows(&op.dst, &op.a, &op.bt, lo, hi)
	case op.strips:
		gemmStrips(&op.dst, &op.a, op.b, lo, hi, op.acc)
	default:
		gemmRows(&op.dst, &op.a, op.b, lo, hi, op.acc)
	}
}

// split computes all units rows, or strips, of op in w ranges across the
// pool — the caller has checked parts(units, flops, parallelMinFlops) =
// w > 1.
func split(op rowOp, units, w int) {
	tasks, j := startJob(w)
	j.op = op
	j.task = &j.op
	j.run(tasks, w, units)
}

// run cuts units into one contiguous range for each of up to w ≤ units
// workers and hands all but the last to the pool. The caller always
// executes the last range itself, so at least one never waits on the pool.
// It then returns the record to the free list.
func (j *job) run(tasks chan poolTask, w, units int) {
	chunk := (units + w - 1) / w
	lo, part := 0, 0
	for ; lo+chunk < units; lo, part = lo+chunk, part+1 {
		j.pending.Add(1)
		tasks <- poolTask{job: j, part: part, lo: lo, hi: lo + chunk}
	}
	j.task.Run(part, lo, units)
	j.pending.Wait()

	j.task, j.op = nil, rowOp{} // an idle record must not pin a caller's buffers
	pool.mu.Lock()
	pool.free = append(pool.free, j)
	pool.mu.Unlock()
}
