package main

import (
	"sort"
	"time"
)

// subWindows is how many equal parts a measured window is cut into.
// Every end-to-end timing and rate is the median of its per-part
// values, so a host stall that hits one part moves one part's figure,
// not the reported one.
const subWindows = 5

// parts accumulates one goroutine's answered operations by the part of
// the window they started in.
type parts struct {
	lat       [subWindows][2][]int64 // ns; [0] reads (kv get, alloc), [1] writes (kv put/delete, free)
	attempted [subWindows]int64
	ok        [subWindows]int64
	within    [subWindows]int64 // correct and within sloLimit
}

// partOf maps an offset from the window start to its part.
func partOf(off, window time.Duration) int {
	p := int(int64(off) * subWindows / int64(window))
	if p < 0 {
		return 0
	}
	if p >= subWindows {
		return subWindows - 1
	}
	return p
}

// add records one attempt; lat is recorded only for answered ones.
func (p *parts) add(part, kind int, lat time.Duration, answered, ok bool) {
	p.attempted[part]++
	if answered {
		p.lat[part][kind] = append(p.lat[part][kind], lat.Nanoseconds())
	}
	if ok {
		p.ok[part]++
		if lat <= sloLimit {
			p.within[part]++
		}
	}
}

func (p *parts) merge(q *parts) {
	for i := range p.lat {
		for k := range p.lat[i] {
			p.lat[i][k] = append(p.lat[i][k], q.lat[i][k]...)
		}
		p.attempted[i] += q.attempted[i]
		p.ok[i] += q.ok[i]
		p.within[i] += q.within[i]
	}
}

func (p *parts) totals() (attempted, ok int64) {
	for i := range p.attempted {
		attempted += p.attempted[i]
		ok += p.ok[i]
	}
	return attempted, ok
}

// tails sets the tail rows: 99th percentiles over the whole window.
func (p *parts) tails(m metrics) {
	var rd, wr []int64
	for i := range p.lat {
		rd = append(rd, p.lat[i][0]...)
		wr = append(wr, p.lat[i][1]...)
	}
	all := append(append([]int64(nil), rd...), wr...)
	sortInt64(rd)
	sortInt64(wr)
	sortInt64(all)
	m.set("tail.lat_p99_us", quantile(all, 0.99)/1e3)
	m.set("tail.get_p99_us", quantile(rd, 0.99)/1e3)
	m.set("tail.write_p99_us", quantile(wr, 0.99)/1e3)
}

// meanLatNs is the mean latency over every answered operation.
func (p *parts) meanLatNs() float64 {
	var sum, n int64
	for i := range p.lat {
		for _, l := range p.lat[i] {
			for _, v := range l {
				sum += v
			}
			n += int64(len(l))
		}
	}
	return ratio(float64(sum), float64(n))
}

// report sets the latency, rate and SLO metrics, each the median over
// parts. opsPerPart counts what throughput_ops_s is made of in each
// part; partDur is one part's length.
func (p *parts) report(m metrics, opsPerPart [subWindows]int64, partDur time.Duration) {
	var tput, p50, rd50, wr50, slo []float64
	for i := range p.lat {
		rd, wr := p.lat[i][0], p.lat[i][1]
		sortInt64(rd)
		sortInt64(wr)
		all := append(append(make([]int64, 0, len(rd)+len(wr)), rd...), wr...)
		sortInt64(all)
		tput = append(tput, float64(opsPerPart[i])/partDur.Seconds())
		p50 = append(p50, quantile(all, 0.50)/1e3)
		rd50 = append(rd50, quantile(rd, 0.50)/1e3)
		wr50 = append(wr50, quantile(wr, 0.50)/1e3)
		// A failed or refused operation counts as missing the SLO.
		slo = append(slo, ratio(float64(p.within[i]), float64(p.attempted[i])))
	}
	m.set("throughput_ops_s", median(tput))
	m.set("lat_p50_us", median(p50))
	m.set("get_p50_us", median(rd50))
	m.set("write_p50_us", median(wr50))
	m.set("within_slo_frac", median(slo))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sortInt64(xs []int64) { sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] }) }

// quantile returns the q-quantile of sorted xs by linear interpolation
// between closest ranks, so it keeps every digit the samples carry.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return float64(xs[len(xs)-1])
	}
	frac := pos - float64(i)
	return float64(xs[i]) + frac*float64(xs[i+1]-xs[i])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
