package server

import (
	"fmt"
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
