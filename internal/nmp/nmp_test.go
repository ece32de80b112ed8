package nmp

import (
	"sync"
	"sync/atomic"
	"testing"

	"cxlalloc/internal/memsim"
)

func newUnit() (*memsim.Device, *Unit) {
	dev := memsim.NewDevice(memsim.Config{HWccWords: 128})
	return dev, New(dev, nil)
}

func TestMCASBasic(t *testing.T) {
	dev, u := newUnit()
	dev.HWccStore(5, 10)

	old, ok := u.MCAS(0, 5, 10, 20)
	if !ok || old != 10 {
		t.Fatalf("MCAS success path: old=%d ok=%v", old, ok)
	}
	if got := dev.HWccLoad(5); got != 20 {
		t.Fatalf("swap not written: %d", got)
	}

	old, ok = u.MCAS(0, 5, 10, 30)
	if ok || old != 20 {
		t.Fatalf("MCAS mismatch path: old=%d ok=%v (CMP-N must fail)", old, ok)
	}
	if got := dev.HWccLoad(5); got != 20 {
		t.Fatalf("failed mCAS wrote memory: %d", got)
	}
}

func TestSpWrSpRdSplit(t *testing.T) {
	dev, u := newUnit()
	dev.HWccStore(7, 1)
	u.SpWr(3, 7, 1, 2)
	old, ok := u.SpRd(3)
	if !ok || old != 1 {
		t.Fatalf("split spwr/sprd: old=%d ok=%v", old, ok)
	}
	if dev.HWccLoad(7) != 2 {
		t.Fatal("swap not applied")
	}
}

func TestSpRdWithoutSpWrPanics(t *testing.T) {
	_, u := newUnit()
	defer func() {
		if recover() == nil {
			t.Fatal("SpRd with no pending SpWr did not panic")
		}
	}()
	u.SpRd(1)
}

func TestSpWrOverwritesAbandonedOp(t *testing.T) {
	dev, u := newUnit()
	dev.HWccStore(4, 100)
	u.SpWr(2, 4, 999, 1) // would fail; abandoned
	u.SpWr(2, 4, 100, 101)
	old, ok := u.SpRd(2)
	if !ok || old != 100 {
		t.Fatalf("second SpWr should win: old=%d ok=%v", old, ok)
	}
	if dev.HWccLoad(4) != 101 {
		t.Fatal("abandoned op's operands used")
	}
}

// Figure 6(b): T1 issues spwr before T2 to the same address; T1's sprd
// succeeds and T2's in-flight op must fail even though T2's compare
// value would have matched afterwards.
func TestConflictingInFlightOpFails(t *testing.T) {
	dev, u := newUnit()
	dev.HWccStore(9, 5)
	u.SpWr(1, 9, 5, 5) // T1: swap to the same value
	u.SpWr(2, 9, 5, 7) // T2: in flight on the same address
	if _, ok := u.SpRd(1); !ok {
		t.Fatal("T1 mCAS should succeed")
	}
	old, ok := u.SpRd(2)
	if ok {
		t.Fatalf("T2 mCAS succeeded despite conflict (old=%d)", old)
	}
	if dev.HWccLoad(9) != 5 {
		t.Fatalf("memory = %d, want 5 (T2 must not have written)", dev.HWccLoad(9))
	}
	if s := u.Stats(); s.Conflicts != 1 {
		t.Fatalf("conflicts = %d, want 1", s.Conflicts)
	}
}

func TestNoConflictAcrossAddresses(t *testing.T) {
	dev, u := newUnit()
	dev.HWccStore(10, 1)
	dev.HWccStore(11, 1)
	u.SpWr(1, 10, 1, 2)
	u.SpWr(2, 11, 1, 2)
	if _, ok := u.SpRd(1); !ok {
		t.Fatal("T1 failed")
	}
	if _, ok := u.SpRd(2); !ok {
		t.Fatal("T2 failed despite different address")
	}
}

func TestThreadIDBounds(t *testing.T) {
	_, u := newUnit()
	for _, tid := range []int{-1, MaxThreads} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SpWr(tid=%d) did not panic", tid)
				}
			}()
			u.SpWr(tid, 0, 0, 0)
		}()
	}
}

func TestLoadStoreDataPath(t *testing.T) {
	dev, u := newUnit()
	u.Store(0, 20, 77)
	if got := u.Load(1, 20); got != 77 {
		t.Fatalf("NMP load = %d", got)
	}
	if dev.HWccLoad(20) != 77 {
		t.Fatal("NMP store did not reach memory")
	}
}

// mCAS must be atomic under heavy contention: a shared counter
// incremented only via MCAS retry loops reaches exactly the expected
// total, with every retry driven by a reported failure.
func TestMCASAtomicityUnderContention(t *testing.T) {
	dev, u := newUnit()
	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				for {
					cur := u.Load(tid, 0)
					if _, ok := u.MCAS(tid, 0, cur, cur+1); ok {
						break
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if got := dev.HWccLoad(0); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d (lost updates => mCAS not atomic)", got, goroutines*perG)
	}
	s := u.Stats()
	if s.Successes != goroutines*perG {
		t.Fatalf("successes = %d, want %d", s.Successes, goroutines*perG)
	}
	if s.SpWrs != s.SpRds {
		t.Fatalf("unbalanced spwr/sprd: %d vs %d", s.SpWrs, s.SpRds)
	}
}

// Distinct addresses see no cross-interference under concurrency.
func TestMCASParallelDisjointAddresses(t *testing.T) {
	dev, u := newUnit()
	const goroutines = 8
	const perG = 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			addr := tid
			for i := 0; i < perG; i++ {
				cur := u.Load(tid, addr)
				if _, ok := u.MCAS(tid, addr, cur, cur+1); !ok {
					t.Errorf("tid %d: uncontended mCAS failed", tid)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if got := dev.HWccLoad(g); got != perG {
			t.Fatalf("addr %d = %d, want %d", g, got, perG)
		}
	}
	if s := u.Stats(); s.Conflicts != 0 {
		t.Fatalf("conflicts = %d on disjoint addresses", s.Conflicts)
	}
}

func TestMCASWithLatencyModel(t *testing.T) {
	dev := memsim.NewDevice(memsim.Config{HWccWords: 8})
	lat := memsim.LatencyCXL()
	u := New(dev, lat)
	dev.HWccStore(0, 1)
	if _, ok := u.MCAS(0, 0, 1, 2); !ok {
		t.Fatal("mCAS with latency model failed")
	}
	if dev.HWccLoad(0) != 2 {
		t.Fatal("swap lost")
	}
}

func TestFaultDeterministicCount(t *testing.T) {
	dev, u := newUnit()
	dev.HWccStore(2, 5)
	u.InjectFaults(FaultPlan{Mode: FaultTimeout, Count: 2})
	for i := 0; i < 2; i++ {
		if _, _, err := u.TryMCAS(0, 2, 5, 6); err != ErrTimeout {
			t.Fatalf("attempt %d: err = %v, want ErrTimeout", i, err)
		}
		if got := dev.HWccLoad(2); got != 5 {
			t.Fatalf("faulted attempt committed: %d", got)
		}
	}
	// Budget exhausted: the plan disarms itself.
	old, ok, err := u.TryMCAS(0, 2, 5, 6)
	if err != nil || !ok || old != 5 {
		t.Fatalf("post-fault mCAS: old=%d ok=%v err=%v", old, ok, err)
	}
	if got := dev.HWccLoad(2); got != 6 {
		t.Fatalf("swap lost: %d", got)
	}
	if s := u.Stats(); s.FaultsInjected != 2 {
		t.Fatalf("FaultsInjected = %d, want 2", s.FaultsInjected)
	}
}

func TestFaultUnavailableUntilCleared(t *testing.T) {
	dev, u := newUnit()
	dev.HWccStore(3, 1)
	u.InjectFaults(FaultPlan{Mode: FaultUnavailable})
	for i := 0; i < 5; i++ {
		if _, _, err := u.TryMCAS(1, 3, 1, 2); err != ErrUnavailable {
			t.Fatalf("attempt %d: err = %v, want ErrUnavailable", i, err)
		}
	}
	// MCAS (the panic wrapper) refuses to run on a faulted unit.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MCAS on faulted unit did not panic")
			}
		}()
		u.MCAS(1, 3, 1, 2)
	}()
	// The data path survives while the compute path is down.
	u.Store(1, 4, 9)
	if got := u.Load(1, 4); got != 9 {
		t.Fatalf("data path broken under faults: %d", got)
	}
	u.ClearFaults()
	if _, ok, err := u.TryMCAS(1, 3, 1, 2); err != nil || !ok {
		t.Fatalf("mCAS after ClearFaults: ok=%v err=%v", ok, err)
	}
	// 5 TryMCAS faults plus the one behind the MCAS panic.
	if s := u.Stats(); s.FaultsInjected != 6 {
		t.Fatalf("FaultsInjected = %d, want 6", s.FaultsInjected)
	}
}

func TestFaultProbabilisticReproducible(t *testing.T) {
	run := func() (faults uint64) {
		dev, u := newUnit()
		dev.HWccStore(0, 0)
		u.InjectFaults(FaultPlan{Mode: FaultUnavailable, Prob: 0.5, Seed: 42})
		for i := 0; i < 100; i++ {
			cur := dev.HWccLoad(0)
			u.TryMCAS(0, 0, cur, cur+1)
		}
		return u.Stats().FaultsInjected
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different fault counts: %d vs %d", a, b)
	}
	if a == 0 || a == 100 {
		t.Fatalf("Prob=0.5 injected %d/100 faults", a)
	}
}

func TestFaultProbabilisticCount(t *testing.T) {
	dev, u := newUnit()
	dev.HWccStore(0, 0)
	u.InjectFaults(FaultPlan{Mode: FaultTimeout, Prob: 1.0, Count: 3, Seed: 1})
	for i := 0; i < 3; i++ {
		if _, _, err := u.TryMCAS(0, 0, 0, 1); err != ErrTimeout {
			t.Fatalf("attempt %d: err = %v", i, err)
		}
	}
	// The Count cap stops injection even though Prob still says fire.
	if _, ok, err := u.TryMCAS(0, 0, 0, 1); err != nil || !ok {
		t.Fatalf("capped plan still faulting: ok=%v err=%v", ok, err)
	}
	if s := u.Stats(); s.FaultsInjected != 3 {
		t.Fatalf("FaultsInjected = %d, want 3", s.FaultsInjected)
	}
}

// The mCAS a healthy unit serves on every lease renewal and every
// allocator CAS in mcas mode: no faults armed, no competing op.
func BenchmarkMCASUncontended(b *testing.B) {
	dev, u := newUnit()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok, err := u.TryMCAS(0, 0, uint64(i), uint64(i+1)); !ok || err != nil {
			b.Fatalf("uncontended mCAS failed: ok=%v err=%v", ok, err)
		}
	}
	if dev.HWccLoad(0) != uint64(b.N) {
		b.Fatal("lost swaps")
	}
}

// Threads spread over the register array, each on its own word: the
// unit mutex is shared, the end-of-sprd scan finds nothing to fail.
func BenchmarkMCASParallel(b *testing.B) {
	_, u := newUnit()
	var next atomic.Int32
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		n := int(next.Add(1)) - 1
		tid, addr := (n*37)%MaxThreads, n%128
		for pb.Next() {
			cur := u.Load(tid, addr)
			if _, _, err := u.TryMCAS(tid, addr, cur, cur+1); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
