package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"parj/internal/rdf"
	"parj/internal/reference"
)

// fixture is what both runs share: the dataset, its file, the oracle's
// answers and the warm-up expectations per fill.
type fixture struct {
	triples []rdf.Triple
	nt      []byte
	ntPath  string
	oracle  *oracle
	want    [][][][]string // want[t][i]: expected rows of fill i of template t
	count   [][]int64      // expected count per fill
	size    [][]int        // body size per fill, learned in the warm-up
}

func prepare(e *env) (*fixture, error) {
	f := &fixture{triples: e.w.triples()}
	f.nt = nTriples(f.triples)
	f.ntPath = filepath.Join(e.dir, "data.nt")
	if err := os.WriteFile(f.ntPath, f.nt, 0o644); err != nil {
		return nil, err
	}
	f.oracle = newOracle(f.triples)
	f.oracle.cache = openCache(filepath.Join(e.root, ".bench_build"), f.nt)
	for _, tpl := range e.w.templates {
		var rows [][][]string
		var counts []int64
		for _, src := range tpl.instances {
			r, err := f.oracle.expect(src)
			if err != nil {
				return nil, fmt.Errorf("oracle %s: %w", tpl.name, err)
			}
			rows = append(rows, r)
			counts = append(counts, int64(len(r)))
		}
		f.want = append(f.want, rows)
		f.count = append(f.count, counts)
		f.size = append(f.size, make([]int, len(tpl.instances)))
	}
	return f, f.oracle.cache.save()
}

// serverArgs are the parj-server flags of the workload; wal is the log
// directory of a churn server.
func serverArgs(e *env, f *fixture, wal string) []string {
	args := []string{"-data", f.ntPath}
	if e.w.churn {
		args = append(args, "-wal", wal, "-wal-sync", "always",
			"-checkpoint-ops", strconv.Itoa(ckptOps), "-checkpoint-interval", ckptInterval)
	}
	return args
}

// startServer launches parj-server n times and keeps the last instance.
// setup_s is the median launch-to-ready time over the quiet launches by
// steal share (see blocks.go). With a calibrator, the kernel is sampled
// after each launch, while the server is idle, and the samples of the
// quiet launches are returned.
func startServer(e *env, f *fixture, n int, poll *http.Client, cal *calibrator) (*proc, float64, []time.Duration, error) {
	var launches []block
	var cals []time.Duration
	var srv *proc
	for i := 0; i < n; i++ {
		wal := filepath.Join(e.dir, fmt.Sprintf("wal-%d", i))
		st0 := readCPUStat()
		start := time.Now()
		p, d, err := launch(filepath.Join(e.bin, "parj-server"), serverArgs(e, f, wal), filepath.Join(e.dir, fmt.Sprintf("server-%d.log", i)), poll)
		if err != nil {
			return nil, 0, nil, err
		}
		launches = append(launches, block{start: start, end: start.Add(d), st0: st0, st1: readCPUStat()})
		if cal != nil {
			cals = append(cals, cal.sample())
		}
		if i < n-1 {
			p.kill()
			os.RemoveAll(wal)
		} else {
			srv = p
		}
	}
	keep := quietest(launches)
	var setups []float64
	for i, k := range keep {
		if k {
			setups = append(setups, launches[i].end.Sub(launches[i].start).Seconds())
		}
	}
	if cal != nil {
		cals = keptSamples(cals, keep)
	}
	return srv, median(setups), cals, nil
}

// warmUp checks every fill's full row multiset against the oracle and
// learns its response size, then reads every fill once more to confirm
// the size repeats.
func warmUp(c *http.Client, base string, w *workloadSpec, f *fixture, o *outcome) {
	for t, tpl := range w.templates {
		for i, src := range tpl.instances {
			rows, r, err := queryRows(c, base, src)
			ok := err == nil
			if ok {
				if diff := reference.DiffMultisets(f.want[t][i], rows); diff != "" {
					fmt.Fprintf(os.Stderr, "perfbench: %s fill %d differs from the oracle: %s\n", tpl.name, i, diff)
					ok = false
				}
			} else {
				fmt.Fprintf(os.Stderr, "perfbench: %s fill %d: %v\n", tpl.name, i, err)
			}
			f.size[t][i] = r.size
			o.op(ok)
		}
	}
	var buf bytes.Buffer
	for t, tpl := range w.templates {
		for i, src := range tpl.instances {
			r, err := query(c, base, src, &buf)
			o.op(err == nil && f.matches(t, i, r))
		}
	}
}

// matches reports whether a timed-phase reply is the expected answer.
func (f *fixture) matches(t, i int, r reply) bool {
	return r.status == http.StatusOK && r.count == f.count[t][i] && r.size == f.size[t][i]
}

// finalCheck verifies the server's state after the run: every fill still
// equals the oracle (the writes were result-neutral), and the churn
// triples present are exactly those the write stream left live.
func finalCheck(c *http.Client, base string, e *env, f *fixture, o *outcome, batches int) {
	for t, tpl := range e.w.templates {
		for i, src := range tpl.instances {
			rows, _, err := queryRows(c, base, src)
			ok := err == nil && reference.DiffMultisets(f.want[t][i], rows) == ""
			o.op(ok)
			o.check(ok, "%s fill %d differs from the oracle after the writes (err %v)", tpl.name, i, err)
		}
	}
	// The probe query only reaches triples whose subject has a marker, so
	// the oracle gets exactly those; base triples never have one.
	state := append(append([]rdf.Triple(nil), f.triples...), e.w.liveChurn(e.seed, batches)...)
	marked := map[string]bool{}
	for _, t := range state {
		if t.P == churnMark {
			marked[t.S] = true
		}
	}
	var reach []rdf.Triple
	for _, t := range state {
		if marked[t.S] {
			reach = append(reach, t)
		}
	}
	want, err := newOracle(reach).expect(churnProbeQuery)
	if err != nil {
		o.check(false, "final-state oracle: %v", err)
		return
	}
	got, _, err := queryRows(c, base, churnProbeQuery)
	ok := err == nil && len(want) > 0 && reference.DiffMultisets(want, got) == ""
	o.op(ok)
	o.check(ok, "final churn state differs from the oracle (err %v, %d rows expected, %d served)", err, len(want), len(got))
}

// readSample is one timed read.
type readSample struct {
	t, block int
	start    time.Time
	rtt      time.Duration
	took     time.Duration
	ok       bool
}

// churnWriter posts the churn batches on the second connection, each as
// soon as it falls due; it never waits for a batch's acknowledgement
// before taking the next due time, so a stalled write delays the ones
// queued behind it and their latency, timed from due, shows it.
type churnWriter struct {
	// due is buffered far beyond the few hundred batches one run issues,
	// so the reader never blocks on the writer.
	due     chan time.Time
	done    chan struct{}
	samples []writeSample
}

func startWriter(c *http.Client, base string, w *workloadSpec, seed int64, first int) *churnWriter {
	cw := &churnWriter{due: make(chan time.Time, 1<<14), done: make(chan struct{})}
	go func() {
		defer close(cw.done)
		j := first
		for due := range cw.due {
			sent := time.Now()
			err := postWrite(c, base, w.churnBatch(seed, j))
			j++
			ack := time.Now()
			cw.samples = append(cw.samples, writeSample{due: due, lat: ack.Sub(due), lag: sent.Sub(due), ack: ack, ok: err == nil})
		}
	}()
	return cw
}

// stop sends the batches already due, then returns every write's sample.
func (cw *churnWriter) stop() []writeSample {
	close(cw.due)
	<-cw.done
	return cw.samples
}

// writeSample is one write: latency from due time to acknowledgement.
type writeSample struct {
	due      time.Time
	lat, lag time.Duration // lag: how late the request left
	ack      time.Time
	block    int
	ok       bool
}

// Block lengths: the read phase is cut into one-second blocks, the write
// probe of the read-only workloads into probeBlocks short ones. The probe
// issues about 600 batches of 4 verdicts, under the 4096 that start a
// reconcile.
const (
	readBlock   = time.Second
	probeBlock  = 100 * time.Millisecond
	probeBlocks = 40
	probePause  = 6 * time.Millisecond
	probeSettle = time.Second
)

func runUntraced(e *env) (*outcome, error) {
	host := readHost()
	f, err := prepare(e)
	if err != nil {
		return nil, err
	}
	e.phase("oracle")
	o := &outcome{correct: true, metrics: map[string]float64{}}
	reads, writes := newClient(), newClient()
	cal := newCalibrator()
	srv, setup, setupCal, err := startServer(e, f, setupLaunches, reads, cal)
	if err != nil {
		return nil, err
	}
	defer srv.kill()
	o.metrics["setup_s"] = setup
	e.phase("setup")
	warmUp(reads, srv.base, e.w, f, o)
	e.phase("warm-up")

	// A churn server gets one full lap of batches first, so the store is
	// at its stationary size when timing starts.
	nextBatch := 0
	if e.w.churn {
		for ; nextBatch < churnSlots; nextBatch++ {
			o.op(postWrite(writes, srv.base, e.w.churnBatch(e.seed, nextBatch)) == nil)
		}
	}

	stream := newReadStream(e.w, e.seed)
	var samples []readSample
	var wsamples []writeSample
	var buf bytes.Buffer
	cpu0, err := srv.cpuTicks()
	if err != nil {
		return nil, err
	}
	clock := newBlockClock(readBlock)
	var readCal []time.Duration // readCal[i] follows block i
	clock.between = func() { readCal = append(readCal, cal.sample()) }
	t0 := clock.list[0].start
	end := t0.Add(time.Duration(e.seconds) * time.Second)
	var cw *churnWriter
	if e.w.churn {
		cw = startWriter(writes, srv.base, e.w, e.seed, nextBatch)
	}
	for now := time.Now(); now.Before(end); now = time.Now() {
		b := clock.at(now)
		op := stream.next()
		start := time.Now()
		r, err := query(reads, srv.base, e.w.templates[op.t].instances[op.i], &buf)
		samples = append(samples, readSample{t: op.t, block: b, start: start, rtt: time.Since(start), took: r.took, ok: err == nil && f.matches(op.t, op.i, r)})
		if cw != nil && len(samples)%writeEvery == 0 {
			cw.due <- time.Now()
		}
	}
	blocks := clock.finish()
	cpu1, err := srv.cpuTicks()
	if err != nil {
		return nil, err
	}
	readCal = append(readCal, cal.sample())
	if cw != nil {
		wsamples = cw.stop()
	}
	nextBatch += len(wsamples)
	for i := range wsamples {
		wsamples[i].block = blockOf(blocks, wsamples[i].due)
	}
	keep := quietest(blocks)
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	o.metrics["server_rss_mb"] = rss
	e.phase("timed")

	// Read-only workloads measure writes after their reads, so the timed
	// reads stay quiesced: small batches, closed loop with a pause between
	// them, so each meets an idle server and no reconcile starts. The
	// probe starts after a settle pause, so the garbage the last large
	// responses left is collected before it rather than during it.
	wkeep := keep
	if !e.w.churn {
		time.Sleep(probeSettle)
		pc := newBlockClock(probeBlock)
		pend := pc.list[0].start.Add(probeBlocks * probeBlock)
		for now := time.Now(); now.Before(pend); now = time.Now() {
			b := pc.at(now)
			err := postWrite(writes, srv.base, e.w.churnBatch(e.seed, nextBatch))
			nextBatch++
			wsamples = append(wsamples, writeSample{lat: time.Since(now), block: b, ok: err == nil})
			time.Sleep(probePause)
		}
		wkeep = quietest(pc.finish())
	}
	e.phase("write probe")
	finalCheck(reads, srv.base, e, f, o, nextBatch)
	e.phase("final check")
	if err := srv.stop(); err != nil {
		o.check(false, "server shutdown: %v", err)
	}

	var rtts, httpMs []float64
	perT := make([][]float64, len(e.w.templates))
	for _, s := range samples {
		o.op(s.ok)
		if !s.ok || !keep[s.block] {
			continue
		}
		v := ms(int64(s.rtt))
		rtts = append(rtts, v)
		httpMs = append(httpMs, v-ms(int64(s.took)))
		perT[s.t] = append(perT[s.t], v)
	}
	var wl, lags []float64
	for _, s := range wsamples {
		o.op(s.ok)
		if s.ok && s.block >= 0 && wkeep[s.block] {
			wl = append(wl, ms(int64(s.lat)))
			lags = append(lags, ms(int64(s.lag)))
		}
	}
	if len(rtts) == 0 || len(wl) == 0 {
		return nil, fmt.Errorf("no successful reads or writes to measure")
	}
	var tmeds []float64
	for _, v := range perT {
		if len(v) > 0 {
			tmeds = append(tmeds, median(v))
		}
	}
	p99, rpct, err := tail(rtts, 99)
	if err != nil {
		return nil, fmt.Errorf("query tail: %w", err)
	}
	w99, wpct, err := tail(wl, 99)
	if err != nil {
		return nil, fmt.Errorf("write tail: %w", err)
	}
	// CPU time hardly moves with steal, and a read's CPU can land in the
	// block after the one it started in, so the CPU cost is taken over
	// the whole phase.
	var kept time.Duration
	var allReads int
	for i, b := range blocks {
		if keep[i] {
			kept += b.end.Sub(b.start)
		}
	}
	for _, s := range samples {
		if s.ok {
			allReads++
		}
	}
	o.metrics["query_p50_ms"] = median(rtts)
	o.metrics["query_p99_ms"] = p99
	o.metrics["query_geomean_ms"] = geomean(tmeds)
	o.metrics["queries_per_s"] = float64(len(rtts)) / kept.Seconds()
	o.metrics["server_cpu_ms_per_query"] = float64(cpu1-cpu0) * 1000 / clockTick / float64(allReads)
	o.metrics["write_p50_ms"] = median(wl)
	o.metrics["write_p99_ms"] = w99
	cals := append(setupCal, keptSamples(readCal, keep)...)
	slow := slowdown(cals)
	raw := normalize(o.metrics, slow)

	fmt.Printf("perfbench %s seed=%d seconds=%d trace=0\n", e.w.name, e.seed, e.seconds)
	fmt.Printf("  host: %s\n", host)
	fmt.Printf("  steal: %.1f%% in the %d kept blocks, %.1f%% in the %d dropped\n",
		100*stealOver(blocks, keep, true), count(keep, true), 100*stealOver(blocks, keep, false), count(keep, false))
	fmt.Printf("  oracle: %v fills judged\n", f.oracle.judged)
	fmt.Printf("  reads: %d timed, %d kept, tail percentile p%g (%d beyond), %d templates\n", len(samples), len(rtts), rpct, beyond(len(rtts), rpct), len(tmeds))
	fmt.Printf("  writes: %d timed, %d kept, tail percentile p%g, generator lag p50 %.3f ms max %.3f ms\n", len(wsamples), len(wl), wpct, median(lags), maxOf(lags))
	fmt.Printf("  http share: median round trip minus took %.3f ms\n", median(httpMs))
	fmt.Printf("  host speed: calibration kernel median %.3f ms over %d samples, slowdown %.4f against the reference\n",
		slow*ms(int64(refKernel)), len(cals), slow)
	fmt.Printf("  raw:")
	for _, d := range endToEnd {
		fmt.Printf(" %s=%.4f", d.name, raw[d.name])
	}
	fmt.Println()
	if e.w.churn {
		fmt.Printf("  reads meeting a fresh epoch: %.1f%%\n", 100*freshShare(samples, wsamples))
	}
	return o, nil
}

func count(keep []bool, want bool) int {
	n := 0
	for _, k := range keep {
		if k == want {
			n++
		}
	}
	return n
}

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

// freshShare estimates the share of reads that were the first to start
// after some write was acknowledged: those pin a new epoch and pay its
// merge unless a checkpoint or reconcile already did.
func freshShare(reads []readSample, writes []writeSample) float64 {
	acks := make([]time.Time, 0, len(writes))
	for _, w := range writes {
		acks = append(acks, w.ack)
	}
	sort.Slice(acks, func(i, j int) bool { return acks[i].Before(acks[j]) })
	fresh, k := 0, 0
	for i := 1; i < len(reads); i++ {
		met := false
		for k < len(acks) && !acks[k].After(reads[i].start) {
			if acks[k].After(reads[i-1].start) {
				met = true
			}
			k++
		}
		if met {
			fresh++
		}
	}
	return float64(fresh) / float64(len(reads))
}
