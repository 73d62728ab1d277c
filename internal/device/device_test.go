package device

import (
	"errors"
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestAllocFreePeak(t *testing.T) {
	d := New(10*KiB, DefaultCostModel())
	a, err := d.Alloc(1000, "a") // rounds to 1024
	if err != nil {
		t.Fatal(err)
	}
	if a.Bytes() != 1024 {
		t.Fatalf("rounded size = %d, want 1024", a.Bytes())
	}
	if d.Used() != 1024 {
		t.Fatalf("used = %d", d.Used())
	}
	b, err := d.Alloc(2048, "b")
	if err != nil {
		t.Fatal(err)
	}
	if d.Peak() != 3072 {
		t.Fatalf("peak = %d", d.Peak())
	}
	d.Free(a)
	if d.Used() != 2048 {
		t.Fatalf("used after free = %d", d.Used())
	}
	if d.Peak() != 3072 {
		t.Fatal("peak must not decrease on free")
	}
	d.Free(b)
	if d.Used() != 0 {
		t.Fatal("used should be zero")
	}
}

func TestOOM(t *testing.T) {
	d := New(4*KiB, DefaultCostModel())
	big, err := d.Alloc(3*KiB, "big")
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.Alloc(2*KiB, "overflow")
	if !errors.Is(err, ErrOOM) {
		t.Fatalf("expected ErrOOM, got %v", err)
	}
	// after freeing, the same allocation succeeds
	d.Free(big)
	if _, err := d.Alloc(2*KiB, "retry"); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeAllocRejected(t *testing.T) {
	d := New(KiB, DefaultCostModel())
	if _, err := d.Alloc(-1, "neg"); err == nil {
		t.Fatal("negative allocation accepted")
	}
}

func TestDoubleFreeIgnored(t *testing.T) {
	d := New(KiB, DefaultCostModel())
	b, _ := d.Alloc(100, "x")
	d.Free(b)
	d.Free(b)
	if d.Used() != 0 {
		t.Fatalf("double free corrupted ledger: used = %d", d.Used())
	}
}

func TestResetPeak(t *testing.T) {
	d := New(10*KiB, DefaultCostModel())
	b, _ := d.Alloc(4*KiB, "x")
	d.Free(b)
	d.ResetPeak()
	if d.Peak() != 0 {
		t.Fatalf("peak after reset = %d", d.Peak())
	}
}

func TestCostModelMonotone(t *testing.T) {
	m := DefaultCostModel()
	if m.TransferTime(0) != 0 {
		t.Fatal("zero work should cost zero time")
	}
	if m.TransferTime(1000) >= m.TransferTime(1000000) {
		t.Fatal("transfer time not monotone in bytes")
	}
	// latency floor
	if m.TransferTime(1) < m.TransferLatency {
		t.Fatal("latency not applied")
	}
}

func TestClockAccumulation(t *testing.T) {
	d := New(GiB, DefaultCostModel())
	t1 := d.Transfer(12e9 / 2)      // about half a second of bandwidth
	t2 := d.ComputeKernels(5e12, 0) // about one second of compute
	if math.Float64bits(d.TransferSeconds()) != math.Float64bits(t1) ||
		math.Float64bits(d.ComputeSeconds()) != math.Float64bits(t2) {
		t.Fatal("clock accumulation mismatch")
	}
	t3 := d.Transfer(12e9 / 2)
	if math.Float64bits(d.TransferSeconds()) != math.Float64bits(t1+t3) {
		t.Fatalf("transfer clock %v after two equal copies of %v", d.TransferSeconds(), t1)
	}
}

func TestComputeKernels(t *testing.T) {
	m := DefaultCostModel()
	d := New(GiB, m)
	// pure flops, no kernels
	t0 := d.ComputeKernels(5e12, 0)
	if t0 != 1.0 {
		t.Fatalf("flops-only time %v, want 1.0", t0)
	}
	// kernel launches add latency linearly
	d2 := New(GiB, m)
	t1 := d2.ComputeKernels(0, 1000)
	if math.Float64bits(t1) != math.Float64bits(1000*m.KernelLatency) {
		t.Fatalf("kernel-only time %v", t1)
	}
	if math.Float64bits(d2.ComputeSeconds()) != math.Float64bits(t1) {
		t.Fatal("kernel time not accumulated")
	}
}

// Property: the ledger is conservative — used equals the sum of live
// buffer sizes after arbitrary alloc/free interleavings.
func TestLedgerConservation(t *testing.T) {
	f := func(ops []uint8) bool {
		d := New(1*MiB, DefaultCostModel())
		var live []*Buffer
		for _, op := range ops {
			if op%3 == 0 && len(live) > 0 {
				i := int(op) % len(live)
				d.Free(live[i])
				live = append(live[:i], live[i+1:]...)
			} else {
				b, err := d.Alloc(int64(op)*37, "p")
				if err == nil {
					live = append(live, b)
				}
			}
		}
		var sum int64
		for _, b := range live {
			sum += b.Bytes()
		}
		return sum == d.Used() && d.Peak() >= d.Used()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLiveBuffersSorted(t *testing.T) {
	d := New(MiB, DefaultCostModel())
	d.Alloc(100, "small")
	d.Alloc(10000, "large")
	d.Alloc(5000, "mid")
	bufs := d.LiveBuffers()
	if len(bufs) != 3 {
		t.Fatalf("live count = %d", len(bufs))
	}
	if bufs[0].Label() != "large" || bufs[2].Label() != "small" {
		t.Fatalf("not sorted by size: %v, %v, %v", bufs[0].Label(), bufs[1].Label(), bufs[2].Label())
	}
}

// The ledger is shared by parallel evaluators and multi-goroutine training
// paths; concurrent alloc/free/clock traffic must stay consistent (run with
// -race to catch unguarded access).
func TestConcurrentLedger(t *testing.T) {
	d := New(GiB, DefaultCostModel())
	const goroutines, rounds = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				buf, err := d.Alloc(4096, "worker")
				if err != nil {
					t.Error(err)
					return
				}
				d.Transfer(4096)
				d.ComputeKernels(1e6, 2)
				_ = d.Used()
				_ = d.Peak()
				d.Free(buf)
			}
		}()
	}
	wg.Wait()
	if d.Used() != 0 {
		t.Fatalf("used = %d after all frees", d.Used())
	}
	if d.Peak() < 4096 || d.Peak() > int64(goroutines)*4096 {
		t.Fatalf("peak = %d out of expected range", d.Peak())
	}
	// Every summand is the same float, so the total is order-independent.
	var want float64
	per := DefaultCostModel().TransferTime(4096)
	for i := 0; i < goroutines*rounds; i++ {
		want += per
	}
	if math.Float64bits(d.TransferSeconds()) != math.Float64bits(want) {
		t.Fatalf("transfer clock = %v, want %v", d.TransferSeconds(), want)
	}
}
