package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"voltnoise/internal/pdn"
	"voltnoise/internal/service"
	"voltnoise/internal/service/client"
	"voltnoise/internal/service/store"
)

// deployment is one in-process voltnoised: a service.Server behind a
// loopback listener, over a memory store.
type deployment struct {
	srv    *service.Server
	hs     *http.Server
	served chan struct{}
	url    string
	st     store.Store
	// warm is the set-up sweep; width is the lane width the server's
	// session pool calibrated, read off its stream (most points in one
	// chunk).
	warm  finished
	width int
}

// widths lists the lane width each deployment's session pool
// calibrated.
func widths(deps []*deployment) []float64 {
	out := make([]float64, len(deps))
	for i, d := range deps {
		out[i] = float64(d.width)
	}
	return out
}

// newClient returns a client that owns one connection and never
// retries, so a refused (429) or failed call surfaces as an error.
func newClient(url string) *client.Client {
	c := client.New(url)
	c.MaxAttempts = -1
	c.HTTPClient = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	return c
}

func closeClient(c *client.Client) {
	c.HTTPClient.Transport.(*http.Transport).CloseIdleConnections()
}

// deploy starts a server and runs its set-up: the warm-up sweep
// (stressmark search, width calibration).
func deploy(ctx context.Context, digests map[string]string, tr *tracer) (*deployment, error) {
	d := &deployment{served: make(chan struct{})}
	if err := d.start(tr); err != nil {
		d.close()
		return nil, err
	}
	c := newClient(d.url)
	defer closeClient(c)
	b := &bench{dep: d, digests: digests, rec: newRecorder()}
	w, err := b.cold(ctx, c, warmupRequest(), false)
	if err != nil {
		d.close()
		return nil, fmt.Errorf("set-up sweep: %w", err)
	}
	d.warm, d.width = w, w.maxLanes
	return d, nil
}

// start serves a server over a memory store on a loopback port. In
// traced runs the runner and store are wrapped with the tracer's timing.
func (d *deployment) start(tr *tracer) error {
	d.st = store.NewMemory(256)
	st := d.st
	var runner service.Runner = service.NewLabRunner()
	if tr != nil {
		st = &tracedStore{inner: st, t: tr}
		runner = &tracedRunner{inner: runner, t: tr}
	}
	d.srv = service.NewServer(service.Config{Store: st, Runner: runner})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	d.url = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: d.srv}
	go func() {
		defer close(d.served)
		d.hs.Serve(ln)
	}()
	return nil
}

// close stops the server, waits for its serve loop and releases the
// store.
func (d *deployment) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if d.hs != nil {
		d.hs.Shutdown(ctx)
		<-d.served
	}
	if d.srv != nil {
		d.srv.Shutdown(ctx)
	}
	if d.st != nil {
		d.st.Close()
	}
}

// finished is a completed cold job as the client verified it.
type finished struct {
	req  *service.Request
	hash string
	id   string
	sum  string
	// maxLanes is the most lanes in one chunk of the job's stream.
	maxLanes int
}

// recorder collects one measurement window's samples. Safe for
// concurrent use.
type recorder struct {
	mu                     sync.Mutex
	job, hit, replay       []float64 // ms, untraced operations
	jobT, hitT             []float64 // ms, traced operations
	attempted, failed      int
	cold                   int
	errs                   []string
	committed, uncommitted int
	// Lane packing seen in cold streams: lanes per chunk as a share of
	// the job's lane width, chunks per job and events per job.
	laneFill, chunksPerJob, eventsPerJob []float64
	byStudy                              map[service.Study][]float64 // untraced cold-job ms per study
	known                                map[string]string           // request hash -> result sha256 seen this run
	// rounds are the untraced rounds completed without a failure.
	rounds []round
}

// round is one cold job with its hit and replay. Every round of a
// workload sends the same mix of operations, so a run's figures are
// medians over its rounds: a stall on a shared host spoils a few
// rounds instead of shifting a whole-window total.
type round struct {
	wall, cpu time.Duration
	ops, jobs int
	jobMs     float64 // latency of the round's cold job
	width     int     // calibrated lane width of the serving deployment
}

// roundMeter accumulates the round a client is in; a nil meter (a
// traced round) measures nothing.
type roundMeter struct {
	width  int
	t0     time.Time
	cpu0   time.Duration
	ops    int
	jobs   int
	jobMs  float64
	failed bool
}

func startRound(width int) *roundMeter {
	return &roundMeter{width: width, t0: time.Now(), cpu0: cpuTime()}
}

func (m *roundMeter) add(kind opKind, d time.Duration, err error) {
	if m == nil {
		return
	}
	if err != nil {
		m.failed = true
		return
	}
	m.ops++
	if kind == kindJob {
		m.jobs++
		m.jobMs = float64(d) / 1e6
	}
}

// endRound records a finished round unless one of its operations failed
// (the failure is counted by op).
func (r *recorder) endRound(m *roundMeter) {
	if m == nil || m.failed {
		return
	}
	rd := round{wall: time.Since(m.t0), cpu: cpuTime() - m.cpu0, ops: m.ops, jobs: m.jobs, jobMs: m.jobMs, width: m.width}
	r.mu.Lock()
	r.rounds = append(r.rounds, rd)
	r.mu.Unlock()
}

// roundMedian is the median of f over the recorded rounds served at
// the lane width (any width when width is 0), and how many there were.
func (r *recorder) roundMedian(width int, f func(round) float64) (float64, int) {
	var xs []float64
	for _, rd := range r.rounds {
		if width == 0 || rd.width == width {
			xs = append(xs, f(rd))
		}
	}
	return median(xs), len(xs)
}

func newRecorder() *recorder {
	return &recorder{known: map[string]string{}, byStudy: map[service.Study][]float64{}}
}

type opKind int

const (
	kindJob opKind = iota
	kindHit
	kindReplay
)

// op records one attempted operation; study names a cold job's study.
func (r *recorder) op(kind opKind, study service.Study, traced bool, d time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.errs) < 5 {
			r.errs = append(r.errs, err.Error())
		}
		return
	}
	ms := float64(d) / 1e6
	switch kind {
	case kindJob:
		r.cold++
		if traced {
			r.jobT = append(r.jobT, ms)
		} else {
			r.job = append(r.job, ms)
			r.byStudy[study] = append(r.byStudy[study], ms)
		}
	case kindHit:
		if traced {
			r.hitT = append(r.hitT, ms)
		} else {
			r.hit = append(r.hit, ms)
		}
	case kindReplay:
		if !traced {
			r.replay = append(r.replay, ms)
		}
	}
}

func (r *recorder) completed() int { return r.attempted - r.failed }

// bench drives a run's deployments; dep is the one serving the current
// round.
type bench struct {
	deps    []*deployment
	dep     *deployment
	digests map[string]string
	tr      *tracer // nil in untraced runs
	rec     *recorder
}

// expect returns the committed digest and the sum seen earlier this run
// for a request hash, counting digest coverage.
func (b *bench) expect(hash string) (committed, known string) {
	committed = b.digests[hash]
	b.rec.mu.Lock()
	defer b.rec.mu.Unlock()
	if committed != "" {
		b.rec.committed++
	} else {
		b.rec.uncommitted++
	}
	return committed, b.rec.known[hash]
}

func (b *bench) remember(hash, s string) {
	b.rec.mu.Lock()
	b.rec.known[hash] = s
	b.rec.mu.Unlock()
}

// watchAll replays a job's stream from the start to its terminal event.
func watchAll(ctx context.Context, c *client.Client, id string) ([]*service.Event, error) {
	evch, errc := c.Watch(ctx, id)
	var evs []*service.Event
	for e := range evch {
		evs = append(evs, e)
	}
	if err := <-errc; err != nil {
		return nil, err
	}
	if len(evs) == 0 || evs[len(evs)-1].Type != service.EventDone {
		return nil, fmt.Errorf("job %s: stream ended without a done event", id)
	}
	return evs, nil
}

// cold submits a request that must not be cached, watches its stream
// to done, fetches the result bytes and verifies them. Latency runs
// from the submit to the verified bytes.
func (b *bench) cold(ctx context.Context, c *client.Client, req *service.Request, traced bool) (finished, error) {
	hash, err := req.Hash()
	if err != nil {
		return finished{}, err
	}
	var root int64
	if traced {
		root = b.tr.open(hash)
		defer b.tr.closeOp(hash)
	}
	t0 := time.Now()
	st, err := c.Submit(ctx, req)
	t1 := time.Now()
	if err != nil {
		return finished{}, err
	}
	if st.Cached || st.Deduped {
		return finished{}, fmt.Errorf("job %s: request %s was not cold (cached=%v deduped=%v)", st.ID, hash[:12], st.Cached, st.Deduped)
	}
	evs, err := watchAll(ctx, c, st.ID)
	t2 := time.Now()
	if err != nil {
		return finished{}, err
	}
	done := evs[len(evs)-1]
	blob, _, err := c.Result(ctx, st.ID)
	if err != nil {
		return finished{}, err
	}
	committed, known := b.expect(hash)
	if err := checkBlob(blob, done.ResultHash, committed, known); err != nil {
		return finished{}, fmt.Errorf("job %s: %w", st.ID, err)
	}
	t3 := time.Now()
	b.remember(hash, done.ResultHash)
	f := finished{req: req, hash: hash, id: st.ID, sum: done.ResultHash}
	b.streamStats(&f, evs)
	if traced {
		b.tr.job(hash, st.ID)
		b.tr.add(root, 0, "job", hash, t0, t3)
		b.tr.add(0, root, "accept", hash, t0, t1)
		b.tr.add(0, root, "watch", hash, t1, t2)
		b.tr.add(0, root, "fetch", hash, t2, t3)
	}
	return f, nil
}

// streamStats reads lane packing off a cold job's stream: freq_sweep
// partials carry one point per lane of their chunk and population
// partials one chip per lane. A sweep's width is the server's
// calibrated width (1 at batch 1). A population study calibrates its
// own session pool per job, so its width is taken as the smaller
// candidate kernel width that holds its widest chunk.
func (b *bench) streamStats(f *finished, evs []*service.Event) {
	chunks := 0
	var lanes []int
	for _, e := range evs {
		if e.Type != service.EventPartial {
			continue
		}
		chunks = e.ChunksTotal
		n := 0
		switch f.req.Study {
		case service.StudyFreqSweep:
			var p service.FreqSweepPartial
			if json.Unmarshal(e.Partial, &p) == nil {
				n = len(p.Points)
			}
		case service.StudyPopulation:
			var p service.PopulationPartial
			if json.Unmarshal(e.Partial, &p) == nil {
				n = len(p.Chips)
			}
		default:
			continue
		}
		lanes = append(lanes, n)
		f.maxLanes = max(f.maxLanes, n)
	}
	width := b.dep.width
	switch {
	case f.req.Batch == 1:
		width = 1
	case f.req.Study == service.StudyPopulation && f.maxLanes <= pdn.DefaultBatchLanes:
		width = pdn.DefaultBatchLanes
	case f.req.Study == service.StudyPopulation:
		width = pdn.WideBatchLanes
	}
	b.rec.mu.Lock()
	defer b.rec.mu.Unlock()
	b.rec.eventsPerJob = append(b.rec.eventsPerJob, float64(len(evs)))
	if chunks > 0 {
		b.rec.chunksPerJob = append(b.rec.chunksPerJob, float64(chunks))
	}
	if width > 0 {
		for _, n := range lanes {
			b.rec.laneFill = append(b.rec.laneFill, float64(n)/float64(width))
		}
	}
}

// hit repeats a request whose result the store already holds and
// verifies the bytes.
func (b *bench) hit(ctx context.Context, c *client.Client, req *service.Request, hash string, traced bool) error {
	var root int64
	if traced {
		// Not registered by hash: the store wrapper times a hit's
		// lookup per call (store.get_us), outside the cold-job spans.
		root = b.tr.open("")
	}
	t0 := time.Now()
	blob, cached, err := c.Run(ctx, req)
	if err != nil {
		return err
	}
	if !cached {
		return fmt.Errorf("repeat of %s was not served from the store", hash[:12])
	}
	committed, known := b.expect(hash)
	if err := checkBlob(blob, "", committed, known); err != nil {
		return fmt.Errorf("hit %s: %w", hash[:12], err)
	}
	if traced {
		b.tr.add(root, 0, "hit", hash, t0, time.Now())
	}
	return nil
}

// replay reads a finished job's full stream, assembles the result from
// it and checks the assembled bytes against the done event's sum.
func (b *bench) replay(ctx context.Context, c *client.Client, f finished, traced bool) error {
	var root int64
	if traced {
		root = b.tr.open("")
	}
	t0 := time.Now()
	evs, err := watchAll(ctx, c, f.id)
	t1 := time.Now()
	if err != nil {
		return err
	}
	blob, err := service.AssembleResult(evs)
	if err != nil {
		return fmt.Errorf("assembling %s: %w", f.id, err)
	}
	committed, known := b.expect(f.hash)
	if err := checkBlob(blob, evs[len(evs)-1].ResultHash, committed, known); err != nil {
		return fmt.Errorf("replay %s: %w", f.id, err)
	}
	t2 := time.Now()
	if traced {
		b.tr.add(root, 0, "replay", f.hash, t0, t2)
		b.tr.add(0, root, "sse", f.hash, t0, t1)
		b.tr.add(0, root, "assemble", f.hash, t1, t2)
	}
	return nil
}

// timed runs an operation and records it, in the client's round too.
func (b *bench) timed(m *roundMeter, kind opKind, study service.Study, traced bool, fn func() error) {
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	b.rec.op(kind, study, traced, d, err)
	m.add(kind, d, err)
}

// drive runs the workload's closed loop, one client on one connection,
// until the deadline. A round is one sweep with its hit and replay.
// Rounds rotate over the run's deployments: each server calibrated its
// own lane width, so every run samples several calibrations instead of
// one. In traced runs blocks of four traced and four untraced rounds
// alternate, so both latencies come from one window; only untraced
// rounds are measured.
func (b *bench) drive(ctx context.Context, workload string, seed int64, deadline time.Time) {
	batch := 0
	if workload == wlSweepLane {
		batch = 1
	}
	g := newGen(seed)
	for i := 0; time.Now().Before(deadline); i++ {
		req := g.sweep(batch)
		traced := b.tr != nil && (i/4)%2 == 0
		b.dep = b.deps[i%len(b.deps)]
		var m *roundMeter
		if !traced {
			m = startRound(b.dep.width)
		}
		c := newClient(b.dep.url)
		b.iteration(ctx, c, m, req, traced)
		closeClient(c)
		b.rec.endRound(m)
	}
}

// iteration sends one cold request, then repeats it (a store hit) and replays its stream.
func (b *bench) iteration(ctx context.Context, c *client.Client, m *roundMeter, req *service.Request, traced bool) {
	var f finished
	var err error
	b.timed(m, kindJob, req.Study, traced, func() error {
		f, err = b.cold(ctx, c, req, traced)
		return err
	})
	if err != nil {
		return
	}
	b.timed(m, kindHit, "", traced, func() error { return b.hit(ctx, c, req, f.hash, traced) })
	b.timed(m, kindReplay, "", traced, func() error { return b.replay(ctx, c, f, traced) })
}
