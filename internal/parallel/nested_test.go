package parallel

import (
	"context"
	"os"
	"os/exec"
	"sync/atomic"
	"testing"
	"time"
)

// nestedChildEnv marks the re-executed test binary that runs the nested
// calls on a fresh pool.
const nestedChildEnv = "PARALLEL_TEST_NESTED_CHILD"

// A shard that issues its own parallel call must never wait on a post only
// a busy worker could dequeue. Earlier tests in this binary may already
// have grown the pool, which hides the bug, so the check runs in a fresh
// process with GOMAXPROCS=2: one persistent worker plus the submitter,
// both inside outer shards when the inner calls are posted.
func TestNestedForCompletesOnFreshPool(t *testing.T) {
	if os.Getenv(nestedChildEnv) == "1" {
		runNestedChild(t)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestNestedForCompletesOnFreshPool$", "-test.count=1")
	cmd.Env = append(os.Environ(), nestedChildEnv+"=1", "GOMAXPROCS=2")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("nested For in a fresh 2-worker process failed: %v\n%s", err, out)
	}
}

func runNestedChild(t *testing.T) {
	if Workers() != 2 {
		t.Fatalf("child sees %d workers, want 2", Workers())
	}
	var sum atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		For(2, 1, func(lo, hi int) {
			For(64, 1, func(lo, hi int) {
				time.Sleep(100 * time.Microsecond)
				sum.Add(int64(lo))
			})
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("nested For did not finish within 10s: a post was left for a busy worker")
	}
	if got, want := sum.Load(), int64(2*63*64/2); got != want {
		t.Fatalf("inner shards summed to %d, want %d", got, want)
	}
}
