package parallel

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsSubmissions(t *testing.T) {
	p := NewPool(4, 4)
	var ran atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Saturation rejections are legal here; count runs only.
			if err := p.Submit(context.Background(), func() { ran.Add(1) }); err != nil && !errors.Is(err, ErrQueueFull) {
				t.Errorf("Submit: %v", err)
			}
		}()
	}
	wg.Wait()
	if ran.Load() == 0 {
		t.Fatal("no submission ran")
	}
	if got := p.InFlight(); got != 0 {
		t.Fatalf("InFlight after quiesce = %d", got)
	}
}

func TestPoolQueueFull(t *testing.T) {
	p := NewPool(1, 0) // one slot, no queue
	block := make(chan struct{})
	started := make(chan struct{})
	go p.Submit(context.Background(), func() {
		close(started)
		<-block
	})
	<-started
	if err := p.Submit(context.Background(), func() {}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("saturated Submit = %v, want ErrQueueFull", err)
	}
	close(block)
}

// TestPoolCancelledWaiterFreesSlot is the regression test for the
// latent bug this PR fixes: a caller that abandons its request while
// queued must release its position so the next request can run.
func TestPoolCancelledWaiterFreesSlot(t *testing.T) {
	p := NewPool(1, 1)
	block := make(chan struct{})
	started := make(chan struct{})
	go p.Submit(context.Background(), func() {
		close(started)
		<-block
	})
	<-started

	// Admitted to the queue, then abandoned before a slot freed up.
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		errc <- p.Submit(ctx, func() { t.Error("cancelled submission ran") })
	}()
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Submit = %v, want context.Canceled", err)
	}

	// The abandoned waiter's queue position must be free again: with
	// the worker still busy, a fresh submission must be admitted (and
	// run once the worker frees up) rather than rejected.
	ran := make(chan struct{})
	errc2 := make(chan error, 1)
	go func() {
		errc2 <- p.Submit(context.Background(), func() { close(ran) })
	}()
	// Give the fresh submission time to fail fast if the slot leaked.
	select {
	case err := <-errc2:
		t.Fatalf("fresh submission rejected after cancellation: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(block)
	if err := <-errc2; err != nil {
		t.Fatalf("fresh submission after cancellation: %v", err)
	}
	<-ran
}

func TestPoolCloseRejectsAndDrains(t *testing.T) {
	p := NewPool(2, 2)
	block := make(chan struct{})
	started := make(chan struct{}, 2)
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			done <- p.Submit(context.Background(), func() {
				started <- struct{}{}
				<-block
			})
		}()
	}
	<-started
	<-started
	p.Close()
	if err := p.Submit(context.Background(), func() {}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Submit after Close = %v, want ErrPoolClosed", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	if p.Drain(ctx) {
		t.Fatal("Drain reported success with work still in flight")
	}
	cancel()

	close(block)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("in-flight submission failed: %v", err)
		}
	}
	if !p.Drain(context.Background()) {
		t.Fatal("Drain failed on an idle closed pool")
	}
}

func TestPoolDefaults(t *testing.T) {
	p := NewPool(0, -1)
	if err := p.Submit(context.Background(), func() {}); err != nil {
		t.Fatal(err)
	}
}

// TestPoolBatchFanOutSaturation is the batch fan-out regression: a
// concurrent burst of exactly workers+queue blocking submissions must
// all be admitted (no admission token lost to a racing rejection),
// one more must shed with ErrQueueFull without disturbing its
// siblings, and after the burst drains the pool's full capacity is
// back — no token leaked, none double-released.
func TestPoolBatchFanOutSaturation(t *testing.T) {
	const workers, queue = 2, 3
	p := NewPool(workers, queue)
	block := make(chan struct{})
	running := make(chan struct{}, workers)
	admitted := make(chan error, workers+queue)
	for i := 0; i < workers+queue; i++ {
		go func() {
			admitted <- p.Submit(context.Background(), func() {
				running <- struct{}{}
				<-block
			})
		}()
	}
	// The burst fills every slot and every queue position.
	for i := 0; i < workers; i++ {
		<-running
	}
	// Wait until the queued three hold their admission tokens too —
	// probing with Submit before then could claim the straggler's
	// token and hang on the slot stage instead of shedding.
	deadline := time.After(2 * time.Second)
	for len(p.tokens) < workers+queue {
		select {
		case <-deadline:
			t.Fatalf("burst never claimed all tokens: %d/%d", len(p.tokens), workers+queue)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	// With every token held the shed attempt must fail fast.
	if err := p.Submit(context.Background(), func() { t.Error("overflow submission ran") }); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("saturated Submit = %v, want ErrQueueFull", err)
	}

	// Release: every admitted submission completes without error (the
	// queued three run and signal too — drain their signals as well).
	close(block)
	for i := 0; i < queue; i++ {
		<-running
	}
	for i := 0; i < workers+queue; i++ {
		if err := <-admitted; err != nil {
			t.Fatalf("admitted submission failed: %v", err)
		}
	}

	// Full capacity is back: workers+queue concurrent holds must all
	// be admitted again. A leaked token from the first burst would
	// turn exactly one of them into ErrQueueFull.
	block2 := make(chan struct{})
	errs2 := make(chan error, workers+queue)
	for i := 0; i < workers+queue; i++ {
		go func() { errs2 <- p.Submit(context.Background(), func() { <-block2 }) }()
	}
	deadline2 := time.After(2 * time.Second)
	for len(p.tokens) < workers+queue {
		select {
		case <-deadline2:
			t.Fatalf("capacity not restored: %d/%d tokens claimed", len(p.tokens), workers+queue)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(block2)
	for i := 0; i < workers+queue; i++ {
		if err := <-errs2; err != nil {
			t.Fatalf("re-admitted submission failed: a token leaked: %v", err)
		}
	}
	if got := p.InFlight(); got != 0 {
		t.Fatalf("InFlight after quiesce = %d", got)
	}
}

// TestPoolPreCancelledNeverRuns pins the fail-fast fix: a submission
// whose context is already dead must return its cause without running
// fn and without consuming an admission token — deterministically,
// not just when the race happens to land that way.
func TestPoolPreCancelledNeverRuns(t *testing.T) {
	p := NewPool(1, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 100; i++ {
		if err := p.Submit(ctx, func() { t.Fatal("cancelled submission ran") }); !errors.Is(err, context.Canceled) {
			t.Fatalf("iteration %d: Submit = %v, want context.Canceled", i, err)
		}
	}
	// The dead submissions consumed nothing: the pool still admits
	// workers+queue concurrent holds.
	block := make(chan struct{})
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { errs <- p.Submit(context.Background(), func() { <-block }) }()
	}
	// Wait until both holds have their admission tokens before probing:
	// an early probe could claim the straggler's token and hang on the
	// slot stage instead of shedding.
	deadline := time.After(2 * time.Second)
	for len(p.tokens) < 2 {
		select {
		case <-deadline:
			t.Fatal("pool lost capacity to pre-cancelled submissions")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if err := p.Submit(context.Background(), func() {}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("saturated Submit = %v, want ErrQueueFull", err)
	}
	close(block)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("live submission failed: %v", err)
		}
	}
}
