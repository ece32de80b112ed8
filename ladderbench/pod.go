package main

import (
	"cxlalloc"
	"cxlalloc/internal/atomicx"
)

// The system shape every workload shares: the pod fabric.New builds for
// each fabric member (internal/fabric buildPod), rebuilt here so the
// lower rungs run on the exact same pod without going through the
// fabric. Two serving thread slots, plus one control slot in its own
// process. The fabric spreads the serving slots over podProcs
// processes; alloc-churn keeps both in one.
const (
	podThreads = 2
	podProcs   = 2
)

func podConfig() cxlalloc.PodConfig {
	pc := cxlalloc.DefaultConfig()
	pc.NumThreads = podThreads + 1
	pc.MaxSmallSlabs = 256
	pc.MaxLargeSlabs = 64
	pc.HugeRegionSize = 1 << 20
	pc.NumReservations = 8
	pc.DescsPerThread = 16
	pc.NumHazards = 8
	pc.UnsizedThreshold = 2
	pc.Mode = atomicx.ModeMCAS
	return cxlalloc.PodConfig{
		Config:      pc,
		AutoRecover: true,
		Liveness:    cxlalloc.LivenessConfig{RenewInterval: 4, GraceMult: 1 << 38, PollInterval: 4},
	}
}

// benchPod is one pod with its serving threads attached: slot t in
// process t%procs, and the control slot podThreads in its own process.
type benchPod struct {
	pod     *cxlalloc.Pod
	threads []*cxlalloc.Thread
	agent   *cxlalloc.Thread
	groups  [][]int // serving slots per process, the server's Groups
}

func newBenchPod(procs int) (*benchPod, error) {
	pod, err := cxlalloc.NewPodWith(podConfig())
	if err != nil {
		return nil, err
	}
	bp := &benchPod{pod: pod, groups: make([][]int, procs)}
	ps := make([]*cxlalloc.Process, procs)
	for i := range ps {
		ps[i] = pod.NewProcess()
	}
	for tid := 0; tid < podThreads; tid++ {
		th, err := ps[tid%procs].AttachThreadID(tid)
		if err != nil {
			return nil, err
		}
		bp.threads = append(bp.threads, th)
		bp.groups[tid%procs] = append(bp.groups[tid%procs], tid)
	}
	if bp.agent, err = pod.NewProcess().AttachThreadID(podThreads); err != nil {
		return nil, err
	}
	return bp, nil
}
