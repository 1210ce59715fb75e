package campaign

import (
	"context"
	"sync"
)

// store holds the results shared between the jobs of one Run. Run puts
// a fresh store into the job context, so a result never outlives the
// campaign that computed it: a caller that runs the same job list twice
// computes everything twice.
type store struct {
	mu      sync.Mutex
	entries map[string]*shareEntry
}

// shareEntry is one key's result; done closes when its leader returns,
// with ok set when the leader succeeded and val holds its result.
type shareEntry struct {
	done chan struct{}
	val  any
	ok   bool
}

type storeKey struct{}

// withStore gives ctx a fresh, empty result store.
func withStore(ctx context.Context) context.Context {
	return context.WithValue(ctx, storeKey{}, &store{entries: map[string]*shareEntry{}})
}

// Share returns fn's result for key, computing it once per key within
// one campaign Run; jobs use it to consume another job's result instead
// of recomputing it. The first caller of a key (the leader)
// runs fn; concurrent callers wait for it, or return ctx.Err() when
// their own context ends first. A failed call (an error, or a panic
// that unwinds through Share) is not stored: the next caller, or a
// waiter woken by the failure, runs fn itself. Without a store in ctx
// (outside Run, or in a worker process), Share just calls fn.
//
// The stored value is shared by every caller, so callers must treat it
// as read-only. Keys must encode every parameter that shapes the
// result — the job's name and spec do. fn must not call Share itself:
// then no caller waits while computing a key, and waits cannot form a
// cycle.
func Share[T any](ctx context.Context, key string, fn func() (T, error)) (T, error) {
	s, _ := ctx.Value(storeKey{}).(*store)
	if s == nil {
		return fn()
	}
	for {
		s.mu.Lock()
		e, found := s.entries[key]
		if !found {
			e = &shareEntry{done: make(chan struct{})}
			s.entries[key] = e
		}
		s.mu.Unlock()
		if !found {
			return lead(s, key, e, fn)
		}
		select {
		case <-e.done:
			if e.ok {
				return e.val.(T), nil
			}
			// The leader failed and dropped the entry; try to lead.
		case <-ctx.Done():
			var zero T
			return zero, ctx.Err()
		}
	}
}

// lead runs fn for key's entry e and publishes the outcome. On failure,
// a panic included, the entry leaves the store before done closes, so a
// woken waiter that loops round finds the key free.
func lead[T any](s *store, key string, e *shareEntry, fn func() (T, error)) (T, error) {
	defer func() {
		if !e.ok {
			s.mu.Lock()
			delete(s.entries, key)
			s.mu.Unlock()
		}
		close(e.done)
	}()
	val, err := fn()
	if err == nil {
		e.val, e.ok = val, true
	}
	return val, err
}
