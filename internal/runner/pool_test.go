package runner

import (
	"sync/atomic"
	"testing"
)

// TestPoolRunsEveryJobExactlyOnce drives many rounds of varying size
// through one pool and checks the job set is exact each time. Every
// other round has one job, which runs on the caller, so one-job and
// parallel rounds alternate on the same workers.
func TestPoolRunsEveryJobExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		p := NewPool(workers)
		for round := 0; round < 100; round++ {
			n := 1 + round%17
			if round%2 == 1 {
				n = 1
			}
			counts := make([]atomic.Int64, n)
			p.Run(n, func(i int) { counts[i].Add(1) })
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("workers=%d round=%d job %d ran %d times", workers, round, i, c)
				}
			}
		}
		p.Close()
	}
}

// TestPoolSerialOrder pins the serial pool's contract: jobs run in index
// order on the calling goroutine.
func TestPoolSerialOrder(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	var got []int
	p.Run(10, func(i int) { got = append(got, i) })
	for i, v := range got {
		if v != i {
			t.Fatalf("serial pool ran jobs out of order: %v", got)
		}
	}
}

// TestPoolZeroJobs: an empty round returns immediately.
func TestPoolZeroJobs(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	p.Run(0, func(i int) { t.Fatal("job ran for n=0") })
}
