package tensor

import (
	"runtime"
	"sync"

	"esti/internal/simd"
)

// Worker pool for the GEMM kernels and the engine's attention walk. The
// caller decides a split — Parts, from the work's units, multiply-adds and
// its kind's measured break-even — and Split runs it: that many contiguous
// ranges (a matmul's rows, a product one tile high its strips, a chip's
// attention walk its parts of query rows) on goroutines started by the
// first split, one per GOMAXPROCS at that time, and never more. Work that
// Parts keeps whole runs in the caller and never touches the pool.
//
// A split pays two channel operations per range handed out and one yield
// of the caller, and allocates nothing: what to run and the completion
// count travel in a job record taken from a free list, and a Task is a
// pointer its owner bound once. The yield is what makes a split pay at
// small sizes. A channel send readies its receiver into the sending P's
// runnext slot, where an idle P may steal it only after a few
// microseconds' back-off (runqgrab's usleep(3), about 70 µs under a
// coarse timer slack), so without it the worker starts only after that
// back-off, or once the caller parks in its wait. Yielding once after
// the sends lets the worker start at once on the caller's P, while the
// caller, on the global run queue, is taken by the idle P that the send
// woke (BenchmarkSplitHandoff times what is left).

// parallelMinFlops is the approximate multiply-add count below which
// splitting a GEMM across workers costs more than it saves. At decode height
// (eight rows) both projections of bench/'s one-chip workloads clear it,
// and so does shared_prefix_mix's 4-chip in-projection ([8,128]·[128,352]);
// chat_mesh8's 8-chip products and every per-chunk out-projection of the
// sharded workloads sit below it. Timed alone and back to back
// (BenchmarkGemmSplit, 2-vCPU x86 box), a decode product split across two
// workers runs 17–34 % slower than serial up to 262 K multiply-adds, with
// the handoff's yield as without it, and 4–28 % faster from 524 K; but in
// the engine, where each split follows serial work, splitting from
// here is what holds latency on shared_prefix_mix and longctx_int8kv
// (docs/measurements.md, "Serial GEMMs, end to end" and "The split
// handoff"). Other work split on the pool brings its own break-even: the
// engine's attention walk splits only from four times this size (engine's
// walkMinFlops).
const parallelMinFlops = 1 << 17

var pool struct {
	mu      sync.Mutex
	tasks   chan poolTask
	free    []*job // idle job records
	started int    // goroutines running; fixed after first start
}

// Task is work over units [0, n) that Split cuts into as many contiguous
// ranges as its caller asks and runs side by side. Run computes units
// [lo, hi) as range number part of the split: ranges are numbered from 0
// in order, each runs on one goroutine, and no two ranges of one split
// share a number, so a task can keep per-part scratch indexed by it.
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

// startJob returns the task channel and an idle job record. The worker
// goroutines start on the first call, one per GOMAXPROCS at that time; a
// split cut into more ranges queues the rest on the channel. The free list
// grows to the number of splits ever in flight at once.
func startJob() (chan poolTask, *job) {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	if pool.tasks == nil {
		n := runtime.GOMAXPROCS(0)
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

// Parts decides a split: how many ranges work of units rows, strips or
// parts and flops multiply-adds is cut into. It is min(GOMAXPROCS, units)
// when the work has two units or more and at least minFlops multiply-adds,
// its kind's break-even as measured by its owner, and 1 — run serially in
// the caller — otherwise. The runtime serves GOMAXPROCS under its
// scheduler lock, so Parts reads it only for work past the size checks.
func Parts(units, flops, minFlops int) int {
	if units < 2 || flops < minFlops {
		return 1
	}
	return min(runtime.GOMAXPROCS(0), units)
}

// Split runs t over units [0, units) as min(parts, units) contiguous
// ranges numbered 0, 1, … in order, and returns when every range is done.
// Below two ranges it runs in the caller as t.Run(0, 0, units). It reads
// neither a threshold nor GOMAXPROCS: the count is the caller's, most often
// Parts'. t must not call Split itself: a worker waiting on a nested split
// could leave it no worker.
func Split(t Task, units, parts int) {
	w := min(parts, units)
	if w < 2 {
		t.Run(0, 0, units)
		return
	}
	tasks, j := startJob()
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

// split is Split for a matmul, whose operands travel in the job record by
// value: all units rows, or strips, of op in w > 1 ranges.
func split(op rowOp, units, w int) {
	tasks, j := startJob()
	j.op = op
	j.task = &j.op
	j.run(tasks, w, units)
}

// run cuts units into w ≤ units contiguous ranges, range k ending at unit
// ⌈(k+1)·units/w⌉, and hands all but the last to the pool. The caller
// yields once, so that the last worker it readied starts on its P rather
// than waiting to be stolen (the pool's header), then executes the last
// range itself, so at least one never waits on the pool. It then returns
// the record to the free list.
func (j *job) run(tasks chan poolTask, w, units int) {
	lo := 0
	for part := 0; part < w-1; part++ {
		hi := ((part+1)*units + w - 1) / w
		j.pending.Add(1)
		tasks <- poolTask{job: j, part: part, lo: lo, hi: hi}
		lo = hi
	}
	runtime.Gosched()
	j.task.Run(w-1, lo, units)
	j.pending.Wait()

	j.task, j.op = nil, rowOp{} // an idle record must not pin a caller's buffers
	pool.mu.Lock()
	pool.free = append(pool.free, j)
	pool.mu.Unlock()
}
