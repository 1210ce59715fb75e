package campaign

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"camouflage/internal/harness"
)

func TestShareRunsOncePerKey(t *testing.T) {
	ctx := withStore(context.Background())
	var calls atomic.Int32
	release := make(chan struct{})
	fn := func() (*int, error) {
		calls.Add(1)
		<-release
		v := 42
		return &v, nil
	}
	const n = 8
	got := make([]*int, n)
	var entered, done sync.WaitGroup
	for i := 0; i < n; i++ {
		entered.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			entered.Done()
			v, err := Share(ctx, "k", fn)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			got[i] = v
		}(i)
	}
	entered.Wait()
	time.Sleep(10 * time.Millisecond) // let the callers queue behind the leader
	close(release)
	done.Wait()
	if c := calls.Load(); c != 1 {
		t.Fatalf("fn ran %d times for one key, want 1", c)
	}
	for i, v := range got {
		if v != got[0] || v == nil || *v != 42 {
			t.Fatalf("caller %d got %v, want the leader's value %v", i, v, got[0])
		}
	}
	// A different key is computed on its own.
	if _, err := Share(ctx, "other", fn); err != nil || calls.Load() != 2 {
		t.Fatalf("second key: err %v, %d calls, want 2", err, calls.Load())
	}
}

func TestShareDoesNotStoreFailures(t *testing.T) {
	ctx := withStore(context.Background())
	var calls int
	boom := errors.New("boom")
	fail := func() (int, error) { calls++; return 0, boom }
	ok := func() (int, error) { calls++; return 7, nil }

	if _, err := Share(ctx, "k", fail); !errors.Is(err, boom) {
		t.Fatalf("failing leader returned %v, want %v", err, boom)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic in fn did not propagate")
			}
		}()
		Share(ctx, "k", func() (int, error) { calls++; panic("kaboom") })
	}()
	for i := 0; i < 2; i++ {
		v, err := Share(ctx, "k", ok)
		if err != nil || v != 7 {
			t.Fatalf("call %d after failures: %v, %v", i, v, err)
		}
	}
	if calls != 3 {
		t.Fatalf("fn ran %d times, want 3 (error, panic, then one success stored)", calls)
	}
}

func TestShareWaiterReturnsOnOwnContext(t *testing.T) {
	ctx := withStore(context.Background())
	leading, release := make(chan struct{}), make(chan struct{})
	leaderDone := make(chan int)
	go func() {
		v, _ := Share(ctx, "k", func() (int, error) {
			close(leading)
			<-release
			return 1, nil
		})
		leaderDone <- v
	}()
	<-leading

	waitCtx, cancel := context.WithCancel(ctx)
	errc := make(chan error)
	go func() {
		_, err := Share(waitCtx, "k", func() (int, error) { return 2, nil })
		errc <- err
	}()
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled waiter returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled waiter still blocked on the leader")
	}
	select {
	case <-leaderDone:
		t.Fatal("leader finished before it was released")
	default:
	}
	close(release)
	if v := <-leaderDone; v != 1 {
		t.Fatalf("leader got %d, want 1", v)
	}
}

func TestShareWaiterLeadsAfterLeaderFails(t *testing.T) {
	ctx := withStore(context.Background())
	leading, release := make(chan struct{}), make(chan struct{})
	go Share(ctx, "k", func() (int, error) {
		close(leading)
		<-release
		return 0, errors.New("leader failed")
	})
	<-leading
	res := make(chan int)
	go func() {
		v, err := Share(ctx, "k", func() (int, error) { return 5, nil })
		if err != nil {
			t.Errorf("waiter: %v", err)
		}
		res <- v
	}()
	time.Sleep(10 * time.Millisecond) // let the second caller wait on the leader
	close(release)
	if v := <-res; v != 5 {
		t.Fatalf("waiter got %d after the leader failed, want its own 5", v)
	}
}

func TestShareWithoutStoreAlwaysCalls(t *testing.T) {
	var calls int
	for i := 0; i < 3; i++ {
		if _, err := Share(context.Background(), "k", func() (int, error) { calls++; return calls, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 3 {
		t.Fatalf("fn ran %d times without a store, want 3", calls)
	}
}

// TestShareScopedToOneRun runs the same job list through two campaigns:
// each must compute the shared key once, never serve run 2 from run 1.
func TestShareScopedToOneRun(t *testing.T) {
	var calls atomic.Int32
	jobs := make([]Job, 4)
	for i := range jobs {
		job := trivialJob(string(rune('a' + i)))
		run := job.Run
		job.Run = func(ctx context.Context, attempt int) (*harness.Table, error) {
			if _, err := Share(ctx, "shared", func() (int, error) { return int(calls.Add(1)), nil }); err != nil {
				return nil, err
			}
			return run(ctx, attempt)
		}
		jobs[i] = job
	}
	opt := fastOpts()
	opt.Workers = 2
	for want := int32(1); want <= 2; want++ {
		sum, err := Run(context.Background(), jobs, opt)
		if err != nil || sum.Completed != len(jobs) {
			t.Fatalf("run %d: %v, %v", want, sum, err)
		}
		if c := calls.Load(); c != want {
			t.Fatalf("after run %d the shared key was computed %d times, want %d", want, c, want)
		}
	}
}
