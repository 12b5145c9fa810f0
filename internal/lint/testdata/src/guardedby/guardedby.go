// Fixture for the guardedby analyzer: true positives (unlocked reads and
// writes, RLock-only writes, goroutine escapes) and near misses that must not
// be flagged (locked accesses, lock-held helpers, constructors, inherited
// closure locks, unannotated fields).
package guardedby

import "sync"

type counter struct {
	mu sync.Mutex
	n  int // guarded by mu

	rw   sync.RWMutex
	peak int // guarded by rw

	label string // unannotated: never checked
}

func (c *counter) locked() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++ // near miss: mu is held
	return c.n
}

func (c *counter) unlockedRead() int {
	return c.n // want `c\.n read without c\.mu held`
}

func (c *counter) unlockedWrite() {
	c.n = 7 // want `c\.n written without c\.mu held`
}

func (c *counter) readLockedRead() int {
	c.rw.RLock()
	defer c.rw.RUnlock()
	return c.peak // near miss: RLock suffices for reads
}

func (c *counter) readLockedWrite() {
	c.rw.RLock()
	defer c.rw.RUnlock()
	c.peak = 1 // want `c\.peak written under c\.rw\.RLock; writes need c\.rw\.Lock`
}

//smrlint:holds mu
func (c *counter) lockedHelper() int {
	return c.n // near miss: annotated lock-held helper
}

func newCounter() *counter {
	c := &counter{}
	c.n = 1 // near miss: constructor, value has not escaped
	return c
}

func (c *counter) spawn() {
	c.mu.Lock()
	defer c.mu.Unlock()
	go func() {
		c.n++ // want `c\.n written without c\.mu held`
	}()
}

func (c *counter) closure() {
	c.mu.Lock()
	defer c.mu.Unlock()
	bump := func() { c.n++ } // near miss: closure inherits the held lock
	bump()
}

func (c *counter) unannotated() string {
	return c.label // near miss: field carries no guard annotation
}

func (c *counter) ignored() int {
	//smrlint:ignore guardedby stats snapshot tolerates a racy read
	return c.n // suppressed by the justified ignore above
}

func (c *counter) ignoreNeedsReason() int {
	/* want `needs a non-empty reason` */ //smrlint:ignore guardedby
	return c.n                            // want `c\.n read without c\.mu held`
}

type badAnnotation struct {
	count int /* want `guarded-by annotation names "missing"` */ // guarded by missing
}
