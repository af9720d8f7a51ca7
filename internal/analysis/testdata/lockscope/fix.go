// Package stream is the lockscope fixture: blocking operations under a
// held sync.Mutex/RWMutex must be flagged; non-blocking critical
// sections, select-with-default, and post-unlock blocking must not.
// BadResolve and BadClose reproduce the two real bug shapes: the
// pendingEdge receive-under-mutex and the pre-PR 7 dispatcher Close
// holding the lock across Wait (Submit/Close hang).
package stream

import (
	"net"
	"sync"
	"time"
)

type box struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	ch   chan int
	down chan struct{}
	wg   sync.WaitGroup
	conn net.Conn
	v    int
}

// BadResolve is the pendingEdge.resolve shape: a channel receive while
// holding the mutex every other accessor needs.
func (b *box) BadResolve() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return <-b.ch // want "channel receive while holding b.mu"
}

// BadClose is the pre-PR 7 dispatcher hang: Close holds the lock across
// the wait that in-flight Submits need the lock to finish.
func (b *box) BadClose() {
	b.mu.Lock()
	b.wg.Wait() // want "sync Wait while holding b.mu"
	b.mu.Unlock()
}

// BadSubmit blocks sending into the window channel under the lock.
func (b *box) BadSubmit(v int) {
	b.mu.Lock()
	b.ch <- v // want "channel send while holding b.mu"
	b.mu.Unlock()
}

// GoodSubmit releases before blocking.
func (b *box) GoodSubmit(v int) {
	b.mu.Lock()
	b.v++
	b.mu.Unlock()
	b.ch <- v
}

// BadSleep sleeps inside the critical section.
func (b *box) BadSleep() {
	b.mu.Lock()
	time.Sleep(time.Millisecond) // want "time.Sleep while holding b.mu"
	b.mu.Unlock()
}

// BadReadLock writes to the connection under a read lock: readers convoy
// writers just the same.
func (b *box) BadReadLock(p []byte) (int, error) {
	b.rw.RLock()
	defer b.rw.RUnlock()
	return b.conn.Write(p) // want "net I/O .Write. while holding b.rw"
}

// BadConnIO performs network I/O while holding the lock.
func (b *box) BadConnIO(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.conn.Read(p) // want "net I/O .Read. while holding b.mu"
}

// BadSelect parks on a no-default select under the lock; the comm
// clauses themselves must not produce extra diagnostics.
func (b *box) BadSelect() {
	b.mu.Lock()
	select { // want "select with no default clause while holding b.mu"
	case v := <-b.ch:
		b.v = v
	case <-b.down:
	}
	b.mu.Unlock()
}

// GoodSelect is non-blocking: a default clause makes the dispatch a poll.
func (b *box) GoodSelect() {
	b.mu.Lock()
	select {
	case v := <-b.ch:
		b.v = v
	default:
	}
	b.mu.Unlock()
}

// BadRange parks on channel receives for the lifetime of the producer.
func (b *box) BadRange() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for v := range b.ch { // want "range over channel while holding b.mu"
		b.v += v
	}
}

// GoodBranchUnlock releases on both arms before blocking.
func (b *box) GoodBranchUnlock(fast bool) {
	b.mu.Lock()
	if fast {
		b.mu.Unlock()
	} else {
		b.v++
		b.mu.Unlock()
	}
	b.ch <- b.v
}

// BadOneArm keeps the lock on one arm: the join may still hold it.
func (b *box) BadOneArm(fast bool) {
	b.mu.Lock()
	if fast {
		b.mu.Unlock()
	}
	b.ch <- b.v // want "channel send while holding b.mu"
	if !fast {
		b.mu.Unlock()
	}
}

// IgnoredFramedSend shows the documented escape hatch: writing one whole
// frame under the send mutex is the wire invariant, not a bug.
func (b *box) IgnoredFramedSend(frame []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	//pplint:ignore lockscope one frame per sendMu hold is the wire framing invariant
	_, err := b.conn.Write(frame)
	return err
}

// GoodNoLock blocks freely without any lock held.
func (b *box) GoodNoLock(v int) {
	b.ch <- v
	time.Sleep(time.Microsecond)
	<-b.down
}
