package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"parj/internal/cluster"
	"parj/internal/core"
	"parj/internal/governance"
	"parj/internal/live"
	"parj/internal/optimizer"
	"parj/internal/posindex"
	"parj/internal/rdf"
	"parj/internal/reference"
	"parj/internal/sparql"
	"parj/internal/stats"
	"parj/internal/store"
	"parj/internal/wal"
)

// Query settings parj-server applies to every request by default.
const (
	serverTimeout   = 30 * time.Second
	serverMaxRows   = 10_000_000
	serverMemBudget = 1 << 30
	serverMaxConc   = 8
	serverAdmitWait = 2 * time.Second
	traceLoads      = 3 // in-process loads; the load metrics are their medians
)

// httpPass measures what only the HTTP path shows: the round trip beyond
// the server's own took, and the response bytes per row.
type httpPass struct {
	httpMs, tookMs, bytesPerRow float64
}

func runHTTPPass(e *env, f *fixture, o *outcome) (httpPass, error) {
	reads, writes := newClient(), newClient()
	srv, _, _, err := startServer(e, f, 1, reads, nil)
	if err != nil {
		return httpPass{}, err
	}
	defer srv.kill()
	warmUp(reads, srv.base, e.w, f, o)
	if e.w.churn {
		for j := 0; j < churnSlots; j++ {
			o.op(postWrite(writes, srv.base, e.w.churnBatch(e.seed, j)) == nil)
		}
	}
	d := time.Duration(e.seconds) * time.Second / 2
	if d < time.Second {
		d = time.Second
	}
	end := time.Now().Add(d)
	var cw *churnWriter
	if e.w.churn {
		cw = startWriter(writes, srv.base, e.w, e.seed, churnSlots)
	}
	stream := newReadStream(e.w, e.seed)
	var buf bytes.Buffer
	var httpMs, tookMs []float64
	var bytesTotal, rowsTotal int64
	n := 0
	for issued := 1; time.Now().Before(end); issued++ {
		op := stream.next()
		start := time.Now()
		r, err := query(reads, srv.base, e.w.templates[op.t].instances[op.i], &buf)
		rtt := time.Since(start)
		ok := err == nil && f.matches(op.t, op.i, r)
		o.op(ok)
		if cw != nil && issued%writeEvery == 0 {
			cw.due <- time.Now()
		}
		if !ok {
			continue
		}
		n++
		httpMs = append(httpMs, ms(int64(rtt-r.took)))
		tookMs = append(tookMs, ms(int64(r.took)))
		bytesTotal += int64(r.size)
		rowsTotal += r.count
	}
	if cw != nil {
		for _, s := range cw.stop() {
			o.op(s.ok)
		}
	}
	if err := srv.stop(); err != nil {
		o.check(false, "server shutdown: %v", err)
	}
	if n == 0 || rowsTotal == 0 {
		return httpPass{}, fmt.Errorf("HTTP pass produced no rows")
	}
	return httpPass{median(httpMs), median(tookMs), float64(bytesTotal) / float64(rowsTotal)}, nil
}

// replay drives one workload's op stream in-process through the layers'
// public entry points, one span per call.
type replay struct {
	e   *env
	f   *fixture
	o   *outcome
	tr  *tracer
	h   *live.Handle
	log *wal.Log // nil for a volatile handle
	fs  *countingFS
	lim *governance.Limiter

	trace        int64
	lastVersion  uint64
	materialized uint64 // epoch a checkpoint already merged

	// mirror is the pending delta rebuilt from the write stream, so the
	// merge a stalled read paid can be replayed step by step.
	mirror    *store.Delta
	touched   map[uint32]bool
	baseStats *stats.Stats

	reads, stalled    int
	stallNs           []int64
	checked           map[instance]bool
	direct            map[instance][]float64 // parj.query minus core.decode, ms
	probes            int64
	seqProbes         int64
	rows, steals      int64
	busyMax, busyMean float64
	writes, nextBatch int
	walTriples        int64
}

func (r *replay) spanNs(id int32) int64 {
	r.tr.mu.Lock()
	defer r.tr.mu.Unlock()
	s := r.tr.spans[id]
	return s.End - s.Start
}

func (r *replay) read(op instance) error {
	tr := r.tr
	src := r.e.w.templates[op.t].instances[op.i]
	r.trace++
	tid := r.trace
	root := tr.begin("parj.query", tid, -1)
	ctx, cancel := context.WithTimeout(context.Background(), serverTimeout)
	defer cancel()
	s := tr.begin("governance.admit", tid, root)
	err := r.lim.Acquire(ctx)
	tr.end(s)
	if err != nil {
		tr.end(root)
		return err
	}
	s = tr.begin("sparql.parse", tid, root)
	q, err := sparql.Parse(src)
	tr.end(s)
	if err != nil {
		r.lim.Release()
		tr.end(root)
		return err
	}
	viewSpan := tr.begin("live.view", tid, root)
	v := r.h.View()
	st := v.Store()
	ss := v.Stats()
	tr.end(viewSpan)
	fresh := v.Version() != r.lastVersion && v.Pending() > 0 && v.Version() != r.materialized
	r.lastVersion = v.Version()
	s = tr.begin("optimizer.plan", tid, root)
	plan, err := optimizer.OptimizeExpanded(q, st, ss, nil)
	tr.end(s)
	if err != nil {
		r.lim.Release()
		tr.end(root)
		return err
	}
	opts := core.Options{
		Context:       ctx,
		MaxResultRows: serverMaxRows,
		MemoryBudget:  serverMemBudget,
		CheckInterval: governance.IntervalForEstimate(plan.EstResultRows()),
	}
	s = tr.begin("core.exec", tid, root)
	res, err := core.Execute(st, plan, opts)
	tr.end(s)
	if err != nil {
		r.lim.Release()
		tr.end(root)
		return err
	}
	decSpan := tr.begin("core.decode", tid, root)
	rows := res.StringRows(st)
	tr.end(decSpan)
	r.lim.Release()
	tr.end(root)

	r.reads++
	r.direct[op] = append(r.direct[op], ms(r.spanNs(root)-r.spanNs(decSpan)))
	r.probes += int64(res.Stats.Total())
	r.seqProbes += int64(res.Stats.Sequential)
	r.rows += res.Count
	r.steals += res.Sched.TotalSteals()
	var maxB, sumB float64
	for _, w := range res.Sched.Workers {
		b := float64(w.Busy)
		sumB += b
		if b > maxB {
			maxB = b
		}
	}
	if n := len(res.Sched.Workers); n > 0 && sumB > 0 {
		r.busyMax += maxB
		r.busyMean += sumB / float64(n)
	}
	ok := res.Count == r.f.count[op.t][op.i]
	if ok && !r.checked[op] {
		r.checked[op] = true
		ok = reference.DiffMultisets(r.f.want[op.t][op.i], rows) == ""
	}
	r.o.op(ok)
	if fresh {
		r.stalled++
		r.stallNs = append(r.stallNs, r.spanNs(viewSpan))
		return r.breakdown(v, st)
	}
	return nil
}

// breakdown replays the merge a stalled read paid inside View.Store, as
// the three public steps it consists of, under its own trace so it does
// not count toward the read.
func (r *replay) breakdown(v *live.View, merged *store.Store) error {
	tr := r.tr
	r.trace++
	tid := r.trace
	root := tr.begin("live.merge_breakdown", tid, -1)
	defer tr.end(root)
	base := v.Base()
	opts := store.InferBuildOptions(base)
	noIndex := opts
	noIndex.BuildPosIndex = false
	s := tr.begin("store.apply_delta", tid, root)
	eff := store.ApplyDelta(base, r.mirror, noIndex)
	tr.end(s)
	s = tr.begin("posindex.build", tid, root)
	if opts.BuildPosIndex {
		maxID := base.Resources.MaxID()
		for p := range r.touched {
			if int(p) <= eff.NumPredicates() {
				eff.SO(p).Index = posindex.Build(eff.SO(p).Keys, maxID, opts.PosIndexInterval)
				eff.OS(p).Index = posindex.Build(eff.OS(p).Keys, maxID, opts.PosIndexInterval)
			}
		}
	}
	tr.end(s)
	s = tr.begin("stats.derive", tid, root)
	stats.NewDerived(eff, r.baseStats)
	tr.end(s)
	if eff.NumTriples() != merged.NumTriples() {
		return fmt.Errorf("mirrored delta diverged: %d triples replayed, %d merged", eff.NumTriples(), merged.NumTriples())
	}
	return nil
}

func (r *replay) write(b batch) error {
	tr := r.tr
	base := r.h.View().Base()
	res, preds := base.Resources, base.Predicates
	type ids struct{ s, p, o uint32 }
	var dels []ids
	for _, t := range b.deletes {
		if s, p, o := res.Lookup(t.S), preds.Lookup(t.P), res.Lookup(t.O); s != 0 && p != 0 && o != 0 {
			dels = append(dels, ids{s, p, o})
		}
	}
	r.trace++
	tid := r.trace
	root := tr.begin("live.apply", tid, -1)
	done := tr.within(tid, root)
	_, err := r.h.Apply(0, b.inserts, b.deletes)
	done()
	tr.end(root)
	r.o.op(err == nil)
	if err != nil {
		return err
	}
	r.writes++
	r.walTriples += int64(len(b.inserts) + len(b.deletes))
	for _, d := range dels {
		r.mirror.Delete(d.s, d.p, d.o)
		r.touched[d.p] = true
	}
	for _, t := range b.inserts {
		p := preds.Lookup(t.P)
		r.mirror.Insert(res.Lookup(t.S), p, res.Lookup(t.O))
		r.touched[p] = true
	}
	if r.h.Pending() >= reconcileOps {
		r.trace++
		root := tr.begin("live.reconcile", r.trace, -1)
		done := tr.within(r.trace, root)
		r.h.Reconcile()
		done()
		tr.end(root)
		v := r.h.View()
		r.mirror = r.mirror.Prune(v.Base())
		if v.Pending() != 0 || !r.mirror.Empty() {
			return fmt.Errorf("reconcile left %d pending verdicts", v.Pending())
		}
		r.touched = map[uint32]bool{}
		r.baseStats = v.Stats()
	}
	if r.log != nil && r.writes%ckptOps == 0 {
		r.trace++
		root := tr.begin("wal.checkpoint", r.trace, -1)
		done := tr.within(r.trace, root)
		err := live.Checkpoint(r.h, r.log)
		done()
		tr.end(root)
		if err != nil {
			return err
		}
		r.materialized = r.h.View().Version()
	}
	return nil
}

// load runs the server's load path in-process: parse, build, statistics.
func load(tr *tracer, trace int64, nt []byte) (*store.Store, *stats.Stats, error) {
	root := tr.begin("load", trace, -1)
	defer tr.end(root)
	s := tr.begin("rdf.parse", trace, root)
	ts, err := rdf.NewReader(bytes.NewReader(nt)).ReadAll()
	tr.end(s)
	if err != nil {
		return nil, nil, err
	}
	s = tr.begin("store.build", trace, root)
	b := store.NewBuilder()
	for _, t := range ts {
		b.AddTriple(t)
	}
	st := b.Build(store.BuildOptions{BuildPosIndex: true})
	tr.end(s)
	s = tr.begin("stats.build", trace, root)
	ss := stats.New(st)
	tr.end(s)
	return st, ss, nil
}

func runTraced(e *env) (*outcome, error) {
	host := readHost()
	f, err := prepare(e)
	if err != nil {
		return nil, err
	}
	e.phase("oracle")
	o := &outcome{correct: true, metrics: map[string]float64{}}
	hp, err := runHTTPPass(e, f, o)
	if err != nil {
		return nil, err
	}
	e.phase("http pass")

	tr := newTracer()
	var st *store.Store
	var ss *stats.Stats
	for i := 0; i < traceLoads; i++ {
		if st, ss, err = load(tr, int64(-1-i), f.nt); err != nil {
			return nil, err
		}
	}
	r := &replay{
		e: e, f: f, o: o, tr: tr,
		lim:     governance.NewLimiter(serverMaxConc, serverAdmitWait),
		mirror:  &store.Delta{},
		touched: map[uint32]bool{},
		checked: map[instance]bool{},
		direct:  map[instance][]float64{},
	}
	bo := store.BuildOptions{BuildPosIndex: true}
	if e.w.churn {
		if r.fs, err = newCountingFS(filepath.Join(e.dir, "wal-traced"), tr); err != nil {
			return nil, err
		}
		if r.log, err = wal.Open(wal.Options{FS: r.fs, Sync: wal.SyncAlways}); err != nil {
			return nil, err
		}
		defer r.log.Close()
		id := tr.begin("wal.open", 0, -1)
		done := tr.within(0, id)
		r.h, err = live.OpenDurable(r.log, func() (*store.Store, uint64, error) { return st, 0, nil }, bo)
		done()
		tr.end(id)
		if err != nil {
			return nil, err
		}
	} else {
		r.h = live.New(st, ss, bo)
	}
	r.baseStats = r.h.View().Stats()
	r.lastVersion = r.h.View().Version()
	e.phase("load")

	stream := newReadStream(e.w, e.seed)
	if e.w.churn {
		for ; r.nextBatch < churnSlots; r.nextBatch++ {
			if err := r.write(e.w.churnBatch(e.seed, r.nextBatch)); err != nil {
				return nil, err
			}
		}
	}
	nInst := len(e.w.instances())
	end := time.Now().Add(time.Duration(e.seconds) * time.Second / 2)
	for time.Now().Before(end) || r.reads < nInst {
		if err := r.read(stream.next()); err != nil {
			return nil, err
		}
		if !e.w.churn || r.reads%writeEvery != 0 {
			continue
		}
		if err := r.write(e.w.churnBatch(e.seed, r.nextBatch)); err != nil {
			return nil, err
		}
		r.nextBatch++
	}
	if !e.w.churn {
		for j := 0; j < probeCount; j++ {
			if err := r.write(e.w.churnBatch(e.seed, r.nextBatch)); err != nil {
				return nil, err
			}
			r.nextBatch++
		}
	}
	if err := tr.write(traceFile(e)); err != nil {
		return nil, err
	}
	e.phase("replay")

	direct := map[instance]float64{}
	for k, v := range r.direct {
		direct[k] = median(v)
	}
	remoteOver, err := remoteRung(e, f, direct, o)
	if err != nil {
		return nil, err
	}
	e.phase("remote rung")
	r.metrics(hp, st, remoteOver)

	fmt.Printf("perfbench %s seed=%d seconds=%d trace=1\n", e.w.name, e.seed, e.seconds)
	fmt.Printf("  host: %s\n", host)
	fmt.Printf("  oracle: %v fills judged\n", f.oracle.judged)
	fmt.Printf("  traced: %d reads, %d writes, %d stalled reads, spans in %s\n", r.reads, r.writes, r.stalled, traceFile(e))
	r.printAccounting()
	return o, nil
}

// selfByRoot sums self time per (root name, span name).
func (r *replay) selfByRoot() map[[2]string]int64 {
	tr := r.tr
	tr.mu.Lock()
	defer tr.mu.Unlock()
	rootOf := make([]string, len(tr.spans))
	children := make([][]int32, len(tr.spans))
	for _, s := range tr.spans {
		if s.Parent < 0 {
			rootOf[s.ID] = s.Name
		} else {
			rootOf[s.ID] = rootOf[s.Parent]
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	out := map[[2]string]int64{}
	for _, s := range tr.spans {
		var iv [][2]int64
		for _, c := range children[s.ID] {
			iv = append(iv, [2]int64{tr.spans[c].Start, tr.spans[c].End})
		}
		out[[2]string{rootOf[s.ID], s.Name}] += s.End - s.Start - covered(iv, s.Start, s.End)
	}
	return out
}

// durations lists the durations of root spans named name, in ms.
func (r *replay) durations(name string) []float64 {
	r.tr.mu.Lock()
	defer r.tr.mu.Unlock()
	var out []float64
	for _, s := range r.tr.spans {
		if s.Name == name && s.Parent < 0 {
			out = append(out, ms(s.End-s.Start))
		}
	}
	return out
}

// childDurations lists the durations of non-root spans named name, in ms.
func (r *replay) childDurations(name string) []float64 {
	r.tr.mu.Lock()
	defer r.tr.mu.Unlock()
	var out []float64
	for _, s := range r.tr.spans {
		if s.Name == name && s.Parent >= 0 {
			out = append(out, ms(s.End-s.Start))
		}
	}
	return out
}

func per(total int64, n int) float64 {
	if n == 0 {
		return 0
	}
	return ms(total) / float64(n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

var readLayers = []string{"governance.admit", "sparql.parse", "live.view", "optimizer.plan", "core.exec", "core.decode", "parj.query"}

func (r *replay) metrics(hp httpPass, st *store.Store, remoteOver float64) {
	m := r.o.metrics
	self := r.selfByRoot()
	q := func(name string) float64 { return per(self[[2]string{"parj.query", name}], r.reads) }
	m["server.http_ms"] = hp.httpMs
	m["server.resp_bytes_per_row"] = hp.bytesPerRow
	m["server.took_ms"] = hp.tookMs
	m["parj.query_ms"] = median(r.durations("parj.query"))
	m["trace.overhead_ms"] = m["parj.query_ms"] - hp.tookMs
	m["parj.overhead_ms"] = q("parj.query")
	m["governance.admit_wait_ms"] = q("governance.admit")
	m["sparql.parse_ms"] = q("sparql.parse")
	m["optimizer.plan_ms"] = q("optimizer.plan")
	m["core.exec_ms"] = q("core.exec")
	m["core.decode_ms"] = q("core.decode")
	m["core.seq_probe_ratio"] = ratio(float64(r.seqProbes), float64(r.probes))
	m["core.probes_per_row"] = ratio(float64(r.probes), float64(r.rows))
	m["core.worker_imbalance"] = ratio(r.busyMax, r.busyMean)
	m["core.steals"] = ratio(float64(r.steals), float64(r.reads))
	var stall int64
	for _, v := range r.stallNs {
		stall += v
	}
	m["live.merge_stall_ms"] = per(stall, r.stalled)
	m["live.stalled_read_ratio"] = ratio(float64(r.stalled), float64(r.reads))
	b := func(name string) float64 { return per(self[[2]string{"live.merge_breakdown", name}], r.stalled) }
	m["store.apply_delta_ms"] = b("store.apply_delta")
	m["posindex.build_ms"] = b("posindex.build")
	m["stats.derive_ms"] = b("stats.derive")
	m["live.apply_ms"] = per(self[[2]string{"live.apply", "live.apply"}], r.writes)
	m["live.reconcile_ms"] = mean(r.durations("live.reconcile"))
	walSelf := self[[2]string{"live.apply", "wal.write"}] + self[[2]string{"live.apply", "wal.sync"}] + self[[2]string{"live.apply", "wal.syncdir"}]
	m["wal.commit_ms"] = per(walSelf, r.writes)
	m["wal.records_per_fsync"], m["wal.bytes_per_triple"] = 0, 0
	if r.fs != nil {
		m["wal.records_per_fsync"] = ratio(float64(r.writes), float64(r.fs.segSyncs.Load()))
		m["wal.bytes_per_triple"] = ratio(float64(r.fs.segBytes.Load()), float64(r.walTriples))
	}
	m["wal.checkpoint_ms"] = mean(r.durations("wal.checkpoint"))
	m["rdf.parse_ms"] = median(r.childDurations("rdf.parse"))
	m["store.build_ms"] = median(r.childDurations("store.build"))
	m["stats.build_ms"] = median(r.childDurations("stats.build"))
	m["store.bytes_per_triple"] = ratio(float64(st.Bytes()), float64(st.NumTriples()))
	m["remote.overhead_ms"] = remoteOver
}

// printAccounting shows that the layer self times add up to the traced
// read and write time, with the remainder each root keeps for itself.
func (r *replay) printAccounting() {
	self := r.selfByRoot()
	total := func(name string) int64 {
		var t int64
		for _, d := range r.durations(name) {
			t += int64(d * 1e6)
		}
		return t
	}
	fmt.Printf("  read accounting (ms per read):")
	var sum int64
	for _, l := range readLayers {
		v := self[[2]string{"parj.query", l}]
		sum += v
		fmt.Printf(" %s=%.4f", l, per(v, r.reads))
	}
	fmt.Printf(" | sum=%.4f traced parj.query=%.4f\n", per(sum, r.reads), per(total("parj.query"), r.reads))
	if r.writes > 0 {
		var wsum int64
		fmt.Printf("  write accounting (ms per write):")
		for _, l := range []string{"live.apply", "wal.write", "wal.sync", "wal.syncdir"} {
			v := self[[2]string{"live.apply", l}]
			wsum += v
			fmt.Printf(" %s=%.4f", l, per(v, r.writes))
		}
		fmt.Printf(" | sum=%.4f traced live.apply=%.4f\n", per(wsum, r.writes), per(total("live.apply"), r.writes))
	}
}

// remoteRung replays the read stream through the coordinator to one
// loopback parj-node and reports the median extra time per read over the
// same fill's in-process parse, plan and execute.
func remoteRung(e *env, f *fixture, direct map[instance]float64, o *outcome) (float64, error) {
	node, _, err := launch(filepath.Join(e.bin, "parj-node"), []string{"-data", f.ntPath}, filepath.Join(e.dir, "node.log"), newClient())
	if err != nil {
		return 0, err
	}
	defer node.kill()
	rc, err := cluster.NewRemote(cluster.RemoteOptions{Replicas: [][]string{{node.base}}, ThreadsPerShard: runtime.GOMAXPROCS(0)})
	if err != nil {
		return 0, err
	}
	defer rc.Close()
	stream := newReadStream(e.w, e.seed)
	var over []float64
	for k := 0; k < 2*len(e.w.instances()); k++ {
		op := stream.next()
		ctx, cancel := context.WithTimeout(context.Background(), serverTimeout)
		start := time.Now()
		res, err := rc.Execute(ctx, e.w.templates[op.t].instances[op.i], false)
		d := time.Since(start)
		cancel()
		ok := err == nil && res.Count == f.count[op.t][op.i]
		o.op(ok)
		if ok {
			over = append(over, ms(int64(d))-direct[op])
		}
	}
	if err := node.stop(); err != nil {
		o.check(false, "parj-node shutdown: %v", err)
	}
	if len(over) == 0 {
		return 0, fmt.Errorf("no remote read succeeded")
	}
	return median(over), nil
}
