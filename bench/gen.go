package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	"dohcost/internal/dnswire"
	"dohcost/internal/loadgen"
	"dohcost/internal/stats"
)

// pick selects the name of one query: a hot-set index, or with pickZipf a
// Zipf rank in the low bits, or pickUnique for a never-repeated name.
type pick uint32

const (
	pickZipf   pick = 1 << 30
	pickUnique pick = 1 << 31
)

// arrival is one scheduled open-phase query: due at nanoseconds after the
// phase starts.
type arrival struct {
	at int64
	p  pick
}

// inputs is everything a run sends, generated from the seed before any
// socket opens. The proxy only ever sees the wire queries built from it.
type inputs struct {
	w   workload
	hot [][]byte // pre-packed plain A queries, ID patched per send
	// zipfTmpl and uniqueTmpl are packed queries whose first label holds
	// decimal digits overwritten per send (rank, or a running counter).
	zipfTmpl, uniqueTmpl []byte
	uniqueBase           uint64
	open                 [lanes][]arrival
	closed               [lanes][]pick // cycled
	digest               string
}

const (
	// The digit fields start after the 12-octet header, the label length
	// octet and the one-letter prefix.
	digitsAt     = 12 + 1 + 1
	zipfDigits   = 8
	uniqueDigits = 10
	closedCycle  = 1 << 16
)

func packQuery(name dnswire.Name) []byte {
	// Plain query without EDNS: the smallest packet a stub sends.
	m := &dnswire.Message{
		RecursionDesired: true,
		Questions:        []dnswire.Question{{Name: name, Type: dnswire.TypeA, Class: dnswire.ClassINET}},
	}
	wire, err := m.Pack()
	if err != nil {
		panic(fmt.Sprintf("bench: packing %s: %v", name, err))
	}
	return wire
}

// putDigits overwrites n decimal digits at wire[digitsAt:].
func putDigits(wire []byte, n int, v uint64) {
	for i := digitsAt + n - 1; i >= digitsAt; i-- {
		wire[i] = byte('0' + v%10)
		v /= 10
	}
}

func generate(w workload, seed int64, open time.Duration) *inputs {
	in := &inputs{w: w}
	rng := rand.New(rand.NewSource(seed*7919 + int64(len(w.name))))
	for i := 0; i < hotNames; i++ {
		var name dnswire.Name
		switch {
		case w.zipfNames > 0:
			name = loadgen.ZipfName(i + 1)
		case w.multiAnswer && i%2 == 1:
			name = dnswire.Name(fmt.Sprintf("m8-%02d-%08x.hot.bench.example.", i, rng.Uint32()))
		default:
			name = dnswire.Name(fmt.Sprintf("a1-%02d-%08x.hot.bench.example.", i, rng.Uint32()))
		}
		in.hot = append(in.hot, packQuery(name))
	}
	in.zipfTmpl = packQuery(loadgen.ZipfName(0))
	in.uniqueTmpl = packQuery(dnswire.Name(fmt.Sprintf("u%0*d.miss.bench.example.", uniqueDigits, 0)))
	in.uniqueBase = uint64(rng.Int63n(1e9))

	var zipf *loadgen.Zipf
	if w.zipfNames > 0 {
		zipf = loadgen.NewZipf(w.zipfNames, 1.0)
	}
	next := func(r *rand.Rand) pick {
		switch {
		case zipf != nil:
			return pickZipf | pick(zipf.Rank(r))
		case w.missShare > 0 && r.Float64() < w.missShare:
			return pickUnique
		default:
			return pick(r.Intn(hotNames))
		}
	}
	for l := 0; l < lanes; l++ {
		r := rand.New(rand.NewSource(rng.Int63()))
		for _, at := range stats.PoissonArrivals(r, w.openRate/lanes, open) {
			in.open[l] = append(in.open[l], arrival{at: int64(at), p: next(r)})
		}
		in.closed[l] = make([]pick, closedCycle)
		for i := range in.closed[l] {
			in.closed[l][i] = next(r)
		}
	}

	h := sha256.New()
	h.Write([]byte(w.name))
	for _, q := range in.hot {
		h.Write(q)
	}
	h.Write(in.zipfTmpl)
	h.Write(in.uniqueTmpl)
	var b [12]byte
	binary.LittleEndian.PutUint64(b[:], in.uniqueBase)
	h.Write(b[:8])
	for l := 0; l < lanes; l++ {
		for _, a := range in.open[l] {
			binary.LittleEndian.PutUint64(b[:], uint64(a.at))
			binary.LittleEndian.PutUint32(b[8:], uint32(a.p))
			h.Write(b[:])
		}
		for _, p := range in.closed[l] {
			binary.LittleEndian.PutUint32(b[:], uint32(p))
			h.Write(b[:4])
		}
	}
	in.digest = hex.EncodeToString(h.Sum(nil)[:16])
	return in
}

// fill writes the query for p into buf and returns its length. seq numbers
// the lane's never-repeated names.
func (in *inputs) fill(buf []byte, p pick, seq *uint64) int {
	switch {
	case p&pickUnique != 0:
		n := copy(buf, in.uniqueTmpl)
		putDigits(buf, uniqueDigits, in.uniqueBase+*seq)
		*seq += lanes
		return n
	case p&pickZipf != 0:
		n := copy(buf, in.zipfTmpl)
		putDigits(buf, zipfDigits, uint64(p&^pickZipf))
		return n
	default:
		return copy(buf, in.hot[p])
	}
}

// answersFor is the rule the loopback upstream answers by and the clients
// verify against: the A record is derived from the lower-case query name,
// and names in the "m8-" family carry eight consecutive addresses.
func answersFor(name []byte) (first [4]byte, count int) {
	s := uint32(2166136261) // FNV-1a, inline so verifying allocates nothing
	for _, c := range name {
		s = (s ^ uint32(c)) * 16777619
	}
	first = [4]byte{10, byte(s >> 16), byte(s >> 8), byte(s) &^ 7}
	count = 1
	if len(name) > 3 && string(name[:3]) == "m8-" {
		count = 8
	}
	return first, count
}
