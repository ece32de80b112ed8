package main

import (
	"encoding/binary"
	"math"
	"time"

	"cxlalloc/internal/xrand"
)

// The loadgen layer: every input a run uses is generated here from the
// seed before any timing starts, so generation cost stays off the timed
// path. Generators are deterministic in the seed.

const (
	opGet uint8 = iota
	opPut
	opDelete
)

// kvOp is one pregenerated request: its kind and key index. A put's
// value is chosen when the op runs, from the key's precomputed variants.
type kvOp struct {
	kind uint8
	key  int32
}

// kvInputs is the seeded input set of a kv workload.
type kvInputs struct {
	keys [][]byte // 8-byte keys, unique
	// vals[k] holds key k's value variants. A put writes the variant
	// after the one currently stored, so a stale or misplaced read shows
	// up as a mismatch against the expected variant.
	vals [][][]byte
	// lanes[l] is lane l's op stream; lanes own disjoint key sets, so
	// each lane knows exactly what every get of its keys must return.
	lanes [][]kvOp
	// due holds open-loop arrival offsets from the window start (nil for
	// closed loops); lanes[0] supplies the op of each arrival.
	due []time.Duration

	genNs  int64 // wall time spent generating
	genOps int   // ops generated (over all lanes)
}

// entryBytes returns the user bytes key k occupies with variant v.
func (in *kvInputs) entryBytes(k, v int) int { return len(in.keys[k]) + len(in.vals[k][v]) }

func makeKeys(rng *xrand.Rand, n int) [][]byte {
	salt := rng.Uint64()
	keys := make([][]byte, n)
	for i := range keys {
		k := make([]byte, 8)
		// XOR with a seeded salt is a bijection, so keys stay unique.
		binary.BigEndian.PutUint64(k, uint64(i)^salt)
		keys[i] = k
	}
	return keys
}

func fillRandom(rng *xrand.Rand, b []byte) {
	for i := 0; i < len(b); i += 8 {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], rng.Uint64())
		copy(b[i:], w[:])
	}
}

// logUniform draws an integer log-uniformly from [lo, hi].
func logUniform(rng *xrand.Rand, lo, hi int) int {
	v := int(float64(lo) * math.Exp(rng.Float64()*math.Log(float64(hi)/float64(lo))))
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}

// genKVUpdate builds kv-update's inputs: modified YCSB-A (25% put, 25%
// delete, 50% get), zipfian 0.99 over 4,096 8-byte keys with 960-byte
// values; lane l owns the keys with index ≡ l (mod lanes).
func genKVUpdate(seed uint64, lanes, opsPerLane int) *kvInputs {
	const (
		nKeys   = 4096
		valSize = 960
	)
	t0 := time.Now()
	rng := xrand.New(xrand.Mix(seed) ^ 0x6b76757064617465)
	in := &kvInputs{keys: makeKeys(rng, nKeys), vals: make([][][]byte, nKeys)}
	for k := range in.vals {
		in.vals[k] = [][]byte{make([]byte, valSize), make([]byte, valSize)}
		fillRandom(rng, in.vals[k][0])
		fillRandom(rng, in.vals[k][1])
	}
	perLane := nKeys / lanes
	for l := 0; l < lanes; l++ {
		lr := xrand.New(xrand.Mix(seed+uint64(l)+1) ^ 0x6c616e65)
		z := xrand.NewZipf(lr, uint64(perLane), 0.99)
		ops := make([]kvOp, opsPerLane)
		for i := range ops {
			key := int32(int(z.NextScrambled())*lanes + l)
			switch u := lr.Float64(); {
			case u < 0.25:
				ops[i] = kvOp{kind: opPut, key: key}
			case u < 0.50:
				ops[i] = kvOp{kind: opDelete, key: key}
			default:
				ops[i] = kvOp{kind: opGet, key: key}
			}
		}
		in.lanes = append(in.lanes, ops)
	}
	in.genOps = lanes * opsPerLane
	in.genNs = time.Since(t0).Nanoseconds()
	return in
}

// genKVReadLarge builds kv-read-large's inputs: 95% get / 5% put,
// uniform over 512 keys whose fixed values are log-uniform in
// [16 B, 64 KiB], with Poisson arrivals at rate per second over window.
func genKVReadLarge(seed uint64, rate float64, window time.Duration) *kvInputs {
	const nKeys = 512
	t0 := time.Now()
	rng := xrand.New(xrand.Mix(seed) ^ 0x6b7672656164)
	in := &kvInputs{keys: makeKeys(rng, nKeys), vals: make([][][]byte, nKeys)}
	// Stratified log-uniform sizes, shuffled over the keys: every seed
	// holds the same multiset of value sizes, so live bytes (and with
	// them footprint_per_live_byte) do not swing with the seed.
	sizes := make([]int, nKeys)
	for i := range sizes {
		sizes[i] = int(16 * math.Pow(4096, (float64(i)+0.5)/nKeys))
	}
	rng.Shuffle(nKeys, func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	for k := range in.vals {
		v := make([]byte, sizes[k])
		fillRandom(rng, v)
		in.vals[k] = [][]byte{v}
	}
	mean := float64(time.Second) / rate
	var ops []kvOp
	var at float64
	for at < float64(window) {
		// Exponential gaps; 1-u is in (0, 1], so the log is finite.
		at += -math.Log(1-rng.Float64()) * mean
		in.due = append(in.due, time.Duration(at))
		op := kvOp{kind: opGet, key: int32(rng.Intn(nKeys))}
		if rng.Float64() < 0.05 {
			op.kind = opPut
		}
		ops = append(ops, op)
	}
	in.lanes = [][]kvOp{ops}
	in.genOps = len(ops)
	in.genNs = time.Since(t0).Nanoseconds()
	return in
}

// churnOp is one pregenerated alloc-churn step: allocate size bytes
// into live-set slot victim, first freeing the slot's current block —
// locally, or by handing it to the other thread when remote is set.
type churnOp struct {
	size   uint16
	victim uint16
	remote bool
}

// genChurn builds one alloc-churn thread's step stream: sizes
// log-uniform in [16 B, 4 KiB] (small and large heaps), victims uniform
// over the live set, one free in four handed to the other thread.
func genChurn(seed uint64, thread, n, liveSet int) []churnOp {
	rng := xrand.New(xrand.Mix(seed+uint64(thread)*0x9e37) ^ 0x636875726e)
	ops := make([]churnOp, n)
	for i := range ops {
		ops[i] = churnOp{
			size:   uint16(logUniform(rng, 16, 4096)),
			victim: uint16(rng.Intn(liveSet)),
			remote: rng.Intn(4) == 0,
		}
	}
	return ops
}
