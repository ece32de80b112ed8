package nmp

// Lockstep property test for the in-flight-set unit: the reference
// model below is the original full-array unit, kept as executable
// documentation of the spwr/sprd protocol (Figure 6) and the fault-plan
// semantics. Its end-of-sprd scan walks all MaxThreads registers and its
// fault decision always takes the lock. The test drives the real Unit
// and the model with identical random operation sequences on twin
// devices and demands bit-identical observable behaviour after every
// step: return values (and panics), stats counters, the registers of
// every thread the sequence uses, and the whole HWcc image.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"cxlalloc/internal/memsim"
	"cxlalloc/internal/xrand"
)

// refUnit is the reference model (no latency model, no telemetry).
type refUnit struct {
	dev    *memsim.Device
	mu     sync.Mutex
	regs   [MaxThreads]pending
	stats  Stats
	faults FaultPlan
	frng   *xrand.Rand
}

func (u *refUnit) SpWr(tid int, addr int, expect, swap uint64) {
	if tid < 0 || tid >= MaxThreads {
		panic(fmt.Sprintf("nmp: thread ID %d out of range", tid))
	}
	u.mu.Lock()
	u.regs[tid] = pending{addr: addr, expect: expect, swap: swap, inFlight: true}
	u.stats.SpWrs++
	u.mu.Unlock()
}

func (u *refUnit) SpRd(tid int) (old uint64, ok bool) {
	u.mu.Lock()
	defer u.mu.Unlock()
	p := &u.regs[tid]
	if !p.inFlight {
		panic(fmt.Sprintf("nmp: SpRd from thread %d with no pending SpWr", tid))
	}
	u.stats.SpRds++
	p.inFlight = false
	if p.failed {
		u.stats.Failures++
		u.stats.Conflicts++
		return u.dev.HWccLoad(p.addr), false
	}
	old = u.dev.HWccLoad(p.addr)
	if old != p.expect {
		u.stats.Failures++
		u.failCompeting(tid, p.addr)
		return old, false
	}
	u.dev.HWccStore(p.addr, p.swap)
	u.stats.Successes++
	u.failCompeting(tid, p.addr)
	return old, true
}

func (u *refUnit) failCompeting(tid, addr int) {
	for i := range u.regs {
		if i == tid {
			continue
		}
		if u.regs[i].inFlight && u.regs[i].addr == addr {
			u.regs[i].failed = true
		}
	}
}

func (u *refUnit) TryMCAS(tid int, addr int, expect, swap uint64) (old uint64, ok bool, err error) {
	if err := u.maybeFault(); err != nil {
		return 0, false, err
	}
	u.SpWr(tid, addr, expect, swap)
	old, ok = u.SpRd(tid)
	return old, ok, nil
}

func (u *refUnit) InjectFaults(plan FaultPlan) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.faults = plan
	if plan.Prob > 0 {
		u.frng = xrand.New(plan.Seed)
	} else {
		u.frng = nil
	}
}

func (u *refUnit) maybeFault() error {
	u.mu.Lock()
	p := &u.faults
	mode := p.Mode
	fire := false
	switch {
	case mode == FaultNone:
	case p.Prob > 0:
		if u.frng.Float64() < p.Prob && (p.Count == 0 || int(u.stats.FaultsInjected) < p.Count) {
			fire = true
		}
	case p.Count > 0:
		fire = true
		p.Count--
		if p.Count == 0 {
			p.Mode = FaultNone
		}
	default:
		fire = true
	}
	if fire {
		u.stats.FaultsInjected++
	}
	u.mu.Unlock()
	if !fire {
		return nil
	}
	if mode == FaultTimeout {
		return ErrTimeout
	}
	return ErrUnavailable
}

// lockstepTIDs spreads the active threads over the whole register
// array, both ends included, so a scan that skipped part of it would
// miss conflicts.
var lockstepTIDs = []int{0, 1, 2, 7, 63, 64, 127, 200, 255, 256, 300, 384, 449, 500, 510, MaxThreads - 1}

const lockstepAddrs = 4

// panics runs f and reports whether it panicked.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

func randomPlan(r *xrand.Rand) FaultPlan {
	mode := FaultTimeout
	if r.Intn(2) == 0 {
		mode = FaultUnavailable
	}
	switch r.Intn(5) {
	case 0:
		return FaultPlan{} // disarm
	case 1:
		return FaultPlan{Mode: mode, Count: 1 + r.Intn(4)} // deterministic burst
	case 2:
		return FaultPlan{Mode: mode} // faults until cleared
	case 3:
		return FaultPlan{Mode: mode, Prob: 0.3, Seed: r.Uint64()}
	default:
		return FaultPlan{Mode: mode, Prob: 0.5, Count: 1 + r.Intn(8), Seed: r.Uint64()}
	}
}

func TestUnitLockstepWithFullScanReference(t *testing.T) {
	const seeds, steps = 24, 4000
	var total Stats
	var abandoned int
	for seed := uint64(1); seed <= seeds; seed++ {
		r := xrand.New(seed)
		devA := memsim.NewDevice(memsim.Config{HWccWords: lockstepAddrs})
		devB := memsim.NewDevice(memsim.Config{HWccWords: lockstepAddrs})
		u := New(devA, nil)
		ref := &refUnit{dev: devB}
		val := func() uint64 { return uint64(r.Intn(4)) }

		for step := 0; step < steps; step++ {
			tid := lockstepTIDs[r.Intn(len(lockstepTIDs))]
			addr := r.Intn(lockstepAddrs)
			var what string
			switch op := r.Intn(100); {
			case op < 30:
				// spwr without its sprd yet; a second spwr on an in-flight
				// register abandons the first operation.
				if ref.regs[tid].inFlight {
					abandoned++
				}
				e, s := val(), val()
				what = fmt.Sprintf("SpWr(%d, %d, %d, %d)", tid, addr, e, s)
				u.SpWr(tid, addr, e, s)
				ref.SpWr(tid, addr, e, s)
			case op < 60:
				// sprd, also with nothing pending: both must panic alike.
				what = fmt.Sprintf("SpRd(%d)", tid)
				var o1, o2 uint64
				var k1, k2 bool
				p1 := panics(func() { o1, k1 = u.SpRd(tid) })
				p2 := panics(func() { o2, k2 = ref.SpRd(tid) })
				if p1 != p2 || o1 != o2 || k1 != k2 {
					t.Fatalf("seed %d step %d %s: unit (%d, %v, panic %v), reference (%d, %v, panic %v)",
						seed, step, what, o1, k1, p1, o2, k2, p2)
				}
			case op < 92:
				e := devB.HWccLoad(addr)
				if r.Intn(4) == 0 {
					e = val()
				}
				s := val()
				what = fmt.Sprintf("TryMCAS(%d, %d, %d, %d)", tid, addr, e, s)
				o1, k1, err1 := u.TryMCAS(tid, addr, e, s)
				o2, k2, err2 := ref.TryMCAS(tid, addr, e, s)
				if o1 != o2 || k1 != k2 || err1 != err2 {
					t.Fatalf("seed %d step %d %s: unit (%d, %v, %v), reference (%d, %v, %v)",
						seed, step, what, o1, k1, err1, o2, k2, err2)
				}
			case op < 96:
				// A plain store under in-flight operations changes what
				// their compares see.
				v := val()
				what = fmt.Sprintf("Store(%d, %d)", addr, v)
				u.Store(tid, addr, v)
				devB.HWccStore(addr, v)
			default:
				plan := randomPlan(r)
				what = fmt.Sprintf("InjectFaults(%+v)", plan)
				u.InjectFaults(plan)
				ref.InjectFaults(plan)
			}

			if u.Stats() != ref.stats {
				t.Fatalf("seed %d step %d %s: stats %+v, reference %+v", seed, step, what, u.Stats(), ref.stats)
			}
			for a := 0; a < lockstepAddrs; a++ {
				if x, y := devA.HWccLoad(a), devB.HWccLoad(a); x != y {
					t.Fatalf("seed %d step %d %s: word %d = %d, reference %d", seed, step, what, a, x, y)
				}
			}
			for _, tid := range lockstepTIDs {
				if u.regs[tid] != ref.regs[tid] {
					t.Fatalf("seed %d step %d %s: register %d = %+v, reference %+v",
						seed, step, what, tid, u.regs[tid], ref.regs[tid])
				}
			}
			checkInFlightSet(t, u)
		}
		s := u.Stats()
		total.SpWrs += s.SpWrs
		total.Successes += s.Successes
		total.Failures += s.Failures
		total.Conflicts += s.Conflicts
		total.FaultsInjected += s.FaultsInjected
	}
	// The sequence must actually reach every path it claims to compare.
	if total.Successes == 0 || total.Failures == total.Conflicts || total.Conflicts == 0 ||
		total.FaultsInjected == 0 || abandoned == 0 {
		t.Fatalf("weak coverage: %+v, %d abandoned spwrs", total, abandoned)
	}
}

// checkInFlightSet asserts the set holds exactly the in-flight registers.
func checkInFlightSet(t *testing.T, u *Unit) {
	t.Helper()
	n := 0
	for tid := range u.regs {
		if !u.regs[tid].inFlight {
			continue
		}
		n++
		if i := int(u.pos[tid]); i >= u.nlive || int(u.live[i]) != tid {
			t.Fatalf("tid %d in flight but not in the set (pos %d, nlive %d)", tid, i, u.nlive)
		}
	}
	if n != u.nlive {
		t.Fatalf("in-flight set holds %d tids, %d registers in flight", u.nlive, n)
	}
}

// TestTryMCASConcurrentStress races TryMCAS increments on a few shared
// words against a fault-plan toggler; run under -race in CI. Every
// success is one increment, every fault one injected fault, and the
// in-flight set drains to empty.
func TestTryMCASConcurrentStress(t *testing.T) {
	const goroutines, perG, addrs = 8, 1500, 3
	dev := memsim.NewDevice(memsim.Config{HWccWords: addrs})
	u := New(dev, nil)
	var faults atomic.Uint64
	stop := make(chan struct{})
	var toggler sync.WaitGroup
	toggler.Add(1)
	go func() {
		defer toggler.Done()
		r := xrand.New(7)
		for {
			select {
			case <-stop:
				u.ClearFaults()
				return
			default:
			}
			u.InjectFaults(randomPlan(r))
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tid := g * (MaxThreads / goroutines)
			for i := 0; i < perG; i++ {
				addr := (g + i) % addrs
				for {
					cur := u.Load(tid, addr)
					_, ok, err := u.TryMCAS(tid, addr, cur, cur+1)
					if err != nil {
						faults.Add(1)
						continue
					}
					if ok {
						break
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	toggler.Wait()

	var sum uint64
	for a := 0; a < addrs; a++ {
		sum += dev.HWccLoad(a)
	}
	s := u.Stats()
	if sum != goroutines*perG || s.Successes != sum {
		t.Fatalf("words sum to %d, %d successes, want %d", sum, s.Successes, goroutines*perG)
	}
	if s.SpWrs != s.SpRds {
		t.Fatalf("unbalanced spwr/sprd: %d vs %d", s.SpWrs, s.SpRds)
	}
	if s.FaultsInjected != faults.Load() {
		t.Fatalf("FaultsInjected = %d, callers saw %d faults", s.FaultsInjected, faults.Load())
	}
	u.mu.Lock()
	n := u.nlive
	u.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d registers still in flight after every op completed", n)
	}
}
