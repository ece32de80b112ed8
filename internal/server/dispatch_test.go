package server

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"cxlalloc/internal/kvstore"
)

// routeServer builds a worker-less server with n single-worker groups,
// all serving, so route can be driven directly.
func routeServer(n int) *Server {
	s := &Server{}
	for i := 0; i < n; i++ {
		g := &group{id: i, tids: []int{i}, q: newQueue(512, 256, time.Second, time.Second), wake: make(chan struct{}, 1)}
		g.brk.workerUp()
		s.groups = append(s.groups, g)
	}
	return s
}

func TestRouteWritesStayHome(t *testing.T) {
	s := routeServer(4)
	for i := 0; i < 256; i++ {
		key := fmt.Sprintf("key-%d", i)
		home := s.route(putReq(key, "v"), nil)
		for j := 0; j < 4; j++ {
			if g := s.route(putReq(key, "v"), nil); g != home {
				t.Fatalf("put %q routed to group %d, then %d", key, home.id, g.id)
			}
			if g := s.route(delReq(key), nil); g != home {
				t.Fatalf("delete %q routed to group %d, put to %d", key, g.id, home.id)
			}
		}
	}
	if st := s.Stats(); st.BreakerReroutes != 0 {
		t.Fatalf("BreakerReroutes = %d with every group live", st.BreakerReroutes)
	}
}

func TestRouteGetsRotate(t *testing.T) {
	s := routeServer(4)
	seen := make(map[int]int)
	for i := 0; i < 400; i++ {
		seen[s.route(getReq("hot"), nil).id]++
	}
	for id := 0; id < 4; id++ {
		if seen[id] != 100 {
			t.Fatalf("gets of one key per group = %v, want 100 each", seen)
		}
	}
}

func TestRouteWriteFallsToNextLiveGroupWhileHomeBroken(t *testing.T) {
	s := routeServer(3)
	r := putReq("key-7", "v")
	home := s.route(r, nil)
	next := s.groups[(home.id+1)%3]

	home.brk.workerDown()
	if g := s.route(r, nil); g != next {
		t.Fatalf("home %d broken: write routed to %d, want next live group %d", home.id, g.id, next.id)
	}
	if got := s.Stats().BreakerReroutes; got != 1 {
		t.Fatalf("BreakerReroutes = %d, want 1", got)
	}

	// A write queued at home when it broke is drained to the same
	// fallback group.
	r.arriveWall, r.deadlineWall = time.Now(), time.Now().Add(time.Hour)
	home.brk.workerUp()
	home.q.push(r)
	home.brk.workerDown()
	s.reroute(home)
	if got, _ := next.q.pop(time.Now(), 0); got != r {
		t.Fatalf("rerouted write not queued on group %d", next.id)
	}

	home.brk.workerUp()
	if g := s.route(r, nil); g != home {
		t.Fatalf("breaker closed: write routed to %d, want home %d", g.id, home.id)
	}
}

// The fabric places shards by FNV-1a mod 16; the home group must not
// reuse those bits, or every key of a shard lands on one group.
func TestHomeGroupSplitsFabricShard(t *testing.T) {
	const shards, perShard = 16, 2000
	for s := 0; s < shards; s++ {
		var n, inFirst int
		for i := 0; n < perShard; i++ {
			key := []byte(fmt.Sprintf("k%07d", i))
			if kvstore.KeyHash(key)%shards != uint64(s) {
				continue
			}
			n++
			if homeGroup(key, 2) == 0 {
				inFirst++
			}
		}
		if frac := float64(inFirst) / perShard; frac < 0.4 || frac > 0.6 {
			t.Fatalf("shard %d: %.3f of its keys on group 0, want 0.4-0.6", s, frac)
		}
	}
}

// TestWakeNoLostWakeup races submitters against workers going idle,
// with the fallback tick taken out. Each round releases every submitter
// at once into idle groups and waits for all answers before the next,
// so a lost wake token strands its request for good.
func TestWakeNoLostWakeup(t *testing.T) {
	f := newTestFixture(t)
	f.srv.Stop()
	srv := newServer(f.srv.cfg, time.Hour)
	defer srv.Stop()

	const submitters, rounds = 16, 300
	for round := 0; round < rounds; round++ {
		start := make(chan struct{})
		var wg sync.WaitGroup
		for c := 0; c < submitters; c++ {
			var r *Request
			key := fmt.Sprintf("c%d-k%d", c, round%8)
			switch (c + round) % 3 {
			case 0:
				r = putReq(key, "v")
			case 1:
				r = delReq(key)
			default:
				r = getReq(key)
			}
			wg.Add(1)
			go func(c int, r *Request) {
				defer wg.Done()
				<-start
				srv.Submit(r)
				select {
				case <-r.done:
					if r.resp.Err != nil {
						t.Errorf("round %d submitter %d: %v", round, c, r.resp.Err)
					}
				case <-time.After(5 * time.Second):
					t.Errorf("round %d submitter %d: request unanswered, wakeup lost", round, c)
				}
			}(c, r)
		}
		close(start)
		wg.Wait()
		if t.Failed() {
			return
		}
	}
}

// singleWorkerServer restarts the fixture's server with one worker per
// group and the given fallback tick, so a group's idleTicks counts the
// benign ticks of exactly one worker.
func singleWorkerServer(t *testing.T, idleTick time.Duration) (*testFixture, *Server) {
	f := newTestFixture(t)
	f.srv.Stop()
	cfg := f.srv.cfg
	cfg.Groups = [][]int{{0}, {1}, {2}, {3}}
	srv := newServer(cfg, idleTick)
	t.Cleanup(srv.Stop)
	return f, srv
}

// A worker woken over and over without ever winning a pop still runs a
// benign tick at least once per two fallback intervals, so its lease
// keeps renewing.
func TestIdleTickRunsForWorkerThatNeverWinsPop(t *testing.T) {
	const tick, window = 10 * time.Millisecond, 300 * time.Millisecond
	f, srv := singleWorkerServer(t, tick)
	g := srv.groups[0]
	heap := f.run.pod.Heap()

	stop := make(chan struct{})
	spammed := make(chan struct{})
	go func() {
		defer close(spammed)
		for {
			select {
			case <-stop:
				return
			default:
				wake(g)
				runtime.Gosched()
			}
		}
	}()
	time.Sleep(2 * tick)
	ticks0 := g.idleTicks.Load()
	_, lease0 := heap.LeaseRead(0, 0)
	time.Sleep(window)
	ticks := g.idleTicks.Load() - ticks0
	_, lease := heap.LeaseRead(0, 0)
	close(stop)
	<-spammed

	if min := uint64(window/(2*tick)) - 1; ticks < min {
		t.Fatalf("worker losing every pop ran %d benign ticks in %v, want >= %d", ticks, window, min)
	}
	if lease <= lease0 {
		t.Fatalf("lease deadline %d -> %d: the idle worker's lease did not renew", lease0, lease)
	}
}

// A worker that serves without pause runs no benign ticks: every tick
// interval it sees already ran an op.
func TestIdleTickSkippedWhileServing(t *testing.T) {
	const tick, window = 10 * time.Millisecond, 300 * time.Millisecond
	_, srv := singleWorkerServer(t, tick)
	g := srv.groups[0]

	// Writes go to their key's home group: keep group 0's worker busy.
	var keys []string
	for i := 0; len(keys) < 16; i++ {
		if k := fmt.Sprintf("busy-%d", i); homeGroup([]byte(k), len(srv.groups)) == 0 {
			keys = append(keys, k)
		}
	}
	const submitters = 4
	stop := make(chan struct{})
	var started, wg sync.WaitGroup
	started.Add(submitters)
	for c := 0; c < submitters; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				r := putReq(keys[(c*4+i)%len(keys)], "v")
				srv.Submit(r)
				if resp := r.Wait(); resp.Err != nil {
					t.Errorf("submitter %d: %v", c, resp.Err)
					return
				}
				if i == 0 {
					started.Done()
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}(c)
	}
	started.Wait()
	ticks0 := g.idleTicks.Load()
	time.Sleep(window)
	ticks := g.idleTicks.Load() - ticks0
	close(stop)
	wg.Wait()

	if ticks != 0 {
		t.Fatalf("continuously serving worker ran %d benign ticks in %v, want 0", ticks, window)
	}
}
