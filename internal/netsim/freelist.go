package netsim

import (
	"runtime"
	"sync"
)

// freeList is a bounded stack of reusable values. Unlike a sync.Pool,
// garbage collection does not empty it, so a warm engine keeps buffers
// sized to the largest run it has served across GCs. It holds at most
// GOMAXPROCS values: get on an empty list builds a new one, and put on
// a full list drops the value for the collector.
type freeList[T any] struct {
	mu    sync.Mutex
	items []*T
	build func() *T
}

func (l *freeList[T]) get() *T {
	l.mu.Lock()
	if n := len(l.items); n > 0 {
		x := l.items[n-1]
		l.items[n-1] = nil
		l.items = l.items[:n-1]
		l.mu.Unlock()
		return x
	}
	l.mu.Unlock()
	return l.build()
}

func (l *freeList[T]) put(x *T) {
	l.mu.Lock()
	if len(l.items) < runtime.GOMAXPROCS(0) {
		l.items = append(l.items, x)
	}
	l.mu.Unlock()
}

// engines holds the idle engines of every pooled entry point.
var engines = freeList[engine]{build: newEngine}
