package main

import (
	"fmt"
	"math"
	"math/rand"

	"voltnoise/internal/core"
	"voltnoise/internal/service"
	"voltnoise/internal/service/client"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlSweepBatched = "sweep-batched"
	wlSweepLane    = "sweep-lane"
)

var workloadNames = []string{wlSweepBatched, wlSweepLane}

// sweepPoints is the point count of every workload sweep: a multiple
// of both calibrated lane widths (8 and 16), so chunks are full at
// either width and the batched path never takes a ragged tail.
const sweepPoints = 32

// warmupRequest is the set-up sweep every deployment runs before
// measuring: it makes the server's quick lab run its stressmark search
// and its session pool calibrate the auto lane width, and its stream's
// lanes per chunk reveal the width the server picked. Its band lies
// above every workload band, so it never collides with a measured
// request; 16 points fill one chunk at either width.
func warmupRequest() *service.Request {
	return mustBuild(client.FreqSweep(service.FreqSweepParams{
		LoHz: 5.5e6, HiHz: 6e6, Points: 16, Sync: true, Events: 10,
	}, client.Quick()))
}

func mustBuild(r *service.Request, err error) *service.Request {
	if err != nil {
		panic(fmt.Sprintf("perfbench: generated request rejected: %v", err))
	}
	return r
}

// logUniform draws from [lo, hi] uniformly in log space.
func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	return math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
}

// gen is a seeded request sequence. Every request it returns has a
// canonical hash it has not returned before, so each is a cold job on a
// fresh server.
type gen struct {
	rng  *rand.Rand
	seen map[string]bool
}

func newGen(seed int64) *gen {
	return &gen{rng: rand.New(rand.NewSource(seed * 1_000_003)), seen: map[string]bool{}}
}

// fresh retries make until it yields an unseen hash.
func (g *gen) fresh(make func() *service.Request) *service.Request {
	for {
		r := make()
		h, err := r.Hash()
		if err != nil {
			panic(fmt.Sprintf("perfbench: hashing generated request: %v", err))
		}
		if !g.seen[h] {
			g.seen[h] = true
			return r
		}
	}
}

// sweep returns the next cold synchronized sweep: a seeded log band
// inside 100 kHz–5 MHz that always spans the ~2 MHz first-droop
// resonance. batch is the request's lane knob (0 = auto, 1 = the
// single-lane engine); it is excluded from the hash, so both sweep
// workloads see the same hashes for the same seed.
func (g *gen) sweep(batch int) *service.Request {
	return g.fresh(func() *service.Request {
		lo := logUniform(g.rng, 1e5, 1.5e6)
		hi := logUniform(g.rng, 2.5e6, 5e6)
		return mustBuild(client.FreqSweep(service.FreqSweepParams{
			LoHz: lo, HiHz: hi, Points: sweepPoints, Sync: true,
		}, client.Quick(), client.Batch(batch)))
	})
}

var (
	techNodes = []int{45, 32, 22, 16}
	classes   = []string{"o3", "io"}
)

func (g *gen) mix() []string {
	m := make([]string, core.NumCores)
	for i := range m {
		m[i] = classes[g.rng.Intn(len(classes))]
	}
	return m
}

// population returns a seeded fleet of minChips–maxChips chips (mixed
// core classes, tech node and age) in bins electrical bins: the request
// the traced run's population probe measures.
func (g *gen) population(minChips, maxChips, bins int) *service.Request {
	return g.fresh(func() *service.Request {
		return mustBuild(client.Population(service.PopulationParams{
			Chips:    minChips + g.rng.Intn(maxChips-minChips+1),
			AgeYears: math.Round(g.rng.Float64()*100) / 10,
			Mix:      g.mix(),
			TechNode: techNodes[g.rng.Intn(len(techNodes))],
			Seed:     g.rng.Uint64() >> 1,
			RLCBins:  bins,
		}))
	})
}

// vmin returns a seeded quick Vmin walk on the ~2 MHz first-droop
// resonance, synchronized (1000 events): the request the traced run's
// vmin probe measures.
func (g *gen) vmin() *service.Request {
	return g.fresh(func() *service.Request {
		return mustBuild(client.VminWalk(service.VminWalkParams{
			FreqHz: logUniform(g.rng, 1.8e6, 2.2e6), Events: 1000,
		}, client.Quick()))
	})
}

// epi returns a small seeded EPI profile (no PDN: epi and uarch only),
// the request the traced run's epi probe measures.
func (g *gen) epi() *service.Request {
	return g.fresh(func() *service.Request {
		return mustBuild(client.EPIProfile(service.EPIProfileParams{
			TopN:          3 + g.rng.Intn(6),
			MeasureCycles: 100 + g.rng.Intn(201),
			WarmupCycles:  1 + g.rng.Intn(200),
		}))
	})
}
