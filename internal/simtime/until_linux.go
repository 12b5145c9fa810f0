//go:build linux

package simtime

import (
	"container/heap"
	"context"
	"os"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// grid is the resolution of timerfd deadlines. Rounding each deadline up to
// it lets waits issued together, such as a phase's writes to every memory or
// a broadcast's links, share one wake-up.
const grid = 50 * time.Microsecond

// clockMonotonic is CLOCK_MONOTONIC, the clock behind Go's monotonic
// readings, so timerfd expiries and time.Since(base) agree.
const clockMonotonic = 1

// base anchors the grid: queued deadlines are monotonic offsets from it.
var base = time.Now()

// wait rounds deadline up to the grid, rides a runtime timer for the whole
// milliseconds before it, where its granularity costs little, and the timerfd
// for the sub-millisecond rest. Putting whole milliseconds on the timerfd too
// costs more CPU per wait. Rounding first keeps a one-millisecond latency,
// which reaches wait a few nanoseconds short of a millisecond, on the timer.
func wait(ctx context.Context, deadline time.Time) error {
	at := (deadline.Sub(base) + grid - 1) / grid * grid
	if whole := (at - time.Since(base)).Truncate(time.Millisecond); whole > 0 {
		if err := sleep(ctx, whole); err != nil {
			return err
		}
		if !time.Now().Before(deadline) {
			return nil
		}
	}
	openOnce.Do(open)
	if shared == nil {
		return sleep(ctx, time.Until(deadline))
	}
	return shared.wait(ctx, at)
}

var (
	openOnce sync.Once
	shared   *queue // nil when the kernel refuses a timerfd
)

// queue is the process-wide timerfd and the waits parked on it. The
// descriptor is non-blocking and wrapped in an os.File, so waiting for it to
// become readable parks the serving goroutine in the netpoller, which wakes
// it as soon as the timerfd expires. Like the runtime's own timers, the queue
// lives as long as the process.
//
// Its syscalls are raw: neither timerfd_settime nor a non-blocking read can
// block, and the scheduler's syscall path would wake the runtime's sysmon
// thread after every idle stretch, which then polls for a millisecond and
// costs more CPU than the wait saves.
type queue struct {
	fd   int             // the timerfd, for timerfd_settime
	conn syscall.RawConn // the same descriptor, polled by the netpoller

	mu    sync.Mutex
	heap  waiterHeap    // guarded by mu
	armed time.Duration // deadline the timerfd is set for, 0 if none; guarded by mu
}

// waiter is one wait parked on the queue.
type waiter struct {
	at    time.Duration // grid-rounded deadline, as an offset from base
	index int           // position in the heap; -1 once released
	ready chan struct{} // buffered 1, so serve's one send never blocks
}

var waiters = sync.Pool{New: func() any { return &waiter{index: -1, ready: make(chan struct{}, 1)} }}

// open creates the shared queue. If the kernel refuses a timerfd, shared
// stays nil and wait falls back to runtime timers.
func open() {
	fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return
	}
	conn, err := os.NewFile(fd, "simtime-timerfd").SyscallConn()
	if err != nil {
		return
	}
	shared = &queue{fd: int(fd), conn: conn}
	go shared.serve()
}

func (q *queue) wait(ctx context.Context, at time.Duration) error {
	w := waiters.Get().(*waiter)
	defer waiters.Put(w)
	w.at = at
	q.mu.Lock()
	heap.Push(&q.heap, w)
	if q.armed == 0 || w.at < q.armed {
		q.armLocked(w.at)
	}
	q.mu.Unlock()
	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
	}
	q.mu.Lock()
	queued := w.index >= 0
	if queued {
		heap.Remove(&q.heap, w.index)
	}
	q.mu.Unlock()
	if !queued {
		<-w.ready // released while ctx ended: the deadline has passed
		return nil
	}
	return ctx.Err()
}

// serve releases every wait whose deadline has come each time the timerfd
// expires, then sets it for the earliest wait left.
func (q *queue) serve() {
	var ticks uint64 // the expiry count; the heap says who is due
	var errno syscall.Errno
	expired := func(fd uintptr) bool {
		_, _, errno = syscall.RawSyscall(syscall.SYS_READ, fd, uintptr(unsafe.Pointer(&ticks)), unsafe.Sizeof(ticks))
		return errno != syscall.EAGAIN
	}
	for {
		err := q.conn.Read(expired)
		if err == nil && errno != 0 {
			err = errno
		}
		if err != nil {
			panic("simtime: reading the timerfd: " + err.Error())
		}
		now := time.Since(base)
		q.mu.Lock()
		for len(q.heap) > 0 && q.heap[0].at <= now {
			heap.Pop(&q.heap).(*waiter).ready <- struct{}{}
		}
		q.armed = 0
		if len(q.heap) > 0 {
			q.armLocked(q.heap[0].at)
		}
		q.mu.Unlock()
	}
}

// itimerspec is the kernel's struct itimerspec.
type itimerspec struct {
	interval syscall.Timespec
	value    syscall.Timespec
}

// armLocked sets the timerfd to expire at offset at from base.
//
//smrlint:holds mu
func (q *queue) armLocked(at time.Duration) {
	rel := at - time.Since(base)
	if rel <= 0 {
		rel = 1 // a zero value would disarm the timerfd
	}
	spec := itimerspec{value: syscall.NsecToTimespec(int64(rel))}
	if _, _, errno := syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(q.fd), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		panic("simtime: timerfd_settime: " + errno.Error())
	}
	q.armed = at
}

// waiterHeap orders waits by deadline and keeps each waiter's index current,
// so a cancelled wait can leave the heap.
type waiterHeap []*waiter

func (h waiterHeap) Len() int           { return len(h) }
func (h waiterHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h waiterHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *waiterHeap) Push(x any) {
	w := x.(*waiter)
	w.index = len(*h)
	*h = append(*h, w)
}

func (h *waiterHeap) Pop() any {
	old := *h
	w := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	w.index = -1
	return w
}
