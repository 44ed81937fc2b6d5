package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"parj/internal/lubm"
	"parj/internal/rdf"
	"parj/internal/reference"
	"parj/internal/watdiv"
)

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		if w.lubm() {
			continue // the generator is the same code path; LUBM 64 is slow to build twice
		}
		if !bytes.Equal(nTriples(w.triples()), nTriples(w.triples())) {
			t.Errorf("%s: dataset differs between two generations", w.name)
		}
	}
	for _, w := range workloads {
		a, b, c := newReadStream(&w, 7), newReadStream(&w, 7), newReadStream(&w, 8)
		same, differs := true, false
		for i := 0; i < 5*len(w.instances()); i++ {
			x, y, z := a.next(), b.next(), c.next()
			same = same && x == y
			differs = differs || x != z
		}
		if !same || !differs {
			t.Errorf("%s: read stream same-seed-equal=%v other-seed-differs=%v", w.name, same, differs)
		}
		for j := 0; j < 3*churnSlots; j++ {
			if !reflect.DeepEqual(w.churnBatch(7, j), w.churnBatch(7, j)) {
				t.Fatalf("%s: churn batch %d differs for one seed", w.name, j)
			}
		}
	}
}

func TestEveryRoundReadsEveryFillOnce(t *testing.T) {
	for _, w := range workloads {
		s := newReadStream(&w, 3)
		n := len(w.instances())
		seen := map[instance]int{}
		for i := 0; i < 2*n; i++ {
			seen[s.next()]++
		}
		for _, in := range w.instances() {
			if seen[in] != 2 {
				t.Errorf("%s: fill %v read %d times in two rounds", w.name, in, seen[in])
			}
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON pins the printed metrics (names,
// units, directions, bounds) and the listed workloads (names, reasons) to
// BENCHMARK.json.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var gotE, wantE, gotL, wantL, gotW, wantW []string
	for _, m := range spec.EndToEnd {
		gotE = append(gotE, m.Name+" "+m.Unit+" "+m.Better+" "+jsonNum(m.Bound))
	}
	for _, m := range endToEnd {
		wantE = append(wantE, m.name+" "+m.unit+" "+m.better+" "+jsonNum(m.bound))
	}
	for _, m := range spec.PerLayer {
		gotL = append(gotL, m.Name+" "+m.Unit+" "+m.Better)
	}
	for _, m := range perLayer {
		wantL = append(wantL, m.name+" "+m.unit+" "+m.better)
	}
	for _, w := range spec.Workloads {
		gotW = append(gotW, w.Name+": "+w.Why)
	}
	for _, w := range workloads {
		if !w.byHand {
			wantW = append(wantW, w.name+": "+w.why)
		}
	}
	for _, c := range []struct {
		what      string
		got, want []string
	}{{"end_to_end", gotE, wantE}, {"per_layer", gotL, wantL}, {"workloads", gotW, wantW}} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s in BENCHMARK.json:\n  %q\nprinted by perfbench:\n  %q", c.what, c.got, c.want)
		}
	}
}

func jsonNum(f float64) string {
	b, _ := json.Marshal(f)
	return string(b)
}

func TestTailRefusesThinTails(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // unsorted on purpose
		}
		return out
	}
	for _, c := range []struct {
		n       int
		pct, at float64
	}{{1000, 99, 990}, {500, 98, 490}, {250, 96, 240}, {20, 50, 10}} {
		v, pct, err := tail(seq(c.n), 99)
		if err != nil || pct != c.pct || v != c.at || beyond(c.n, pct) < minBeyond {
			t.Errorf("n=%d: got p%g=%g err %v, want p%g=%g", c.n, pct, v, err, c.pct, c.at)
		}
	}
	if _, _, err := tail(seq(19), 99); err == nil {
		t.Error("19 samples: a tail with fewer than 10 samples beyond it was reported")
	}
}

func TestParseTail(t *testing.T) {
	body := []byte(`{"vars":["x"],"rows":[["<a>"],["\"took\""]],"count":2,"took":"1.5ms"}` + "\n")
	r, err := parseTail(body, reply{status: 200})
	if err != nil || r.count != 2 || r.took != 1500*time.Microsecond || r.size != len(body)-len("1.5ms") {
		t.Fatalf("parseTail = %+v, %v", r, err)
	}
	if _, err := parseTail([]byte(`{"error":"x"}`), reply{}); err == nil {
		t.Error("a body without count and took parsed")
	}
}

// TestChurnIsResultNeutral checks, on small instances of both generators,
// that a full lap of churn batches plus a partial one leaves every fill's
// answer unchanged according to the reference oracle, and that the probe
// query sees exactly the live churn triples.
func TestChurnIsResultNeutral(t *testing.T) {
	small := map[string][]rdf.Triple{
		"lubm-analytic": lubm.Triples(1, lubm.Config{}),
		"watdiv-serve":  watdiv.Triples(1, watdiv.Config{}),
		"watdiv-churn":  watdiv.Triples(1, watdiv.Config{}),
	}
	for _, w := range workloads {
		base, ok := small[w.name]
		if !ok {
			continue
		}
		const batches = churnSlots + 5
		churn := w.liveChurn(9, batches)
		if want := churnSlots * 2 * w.entities(); len(churn) != want {
			t.Fatalf("%s: %d live churn triples, want %d", w.name, len(churn), want)
		}
		before, after := newOracle(base), newOracle(append(append([]rdf.Triple(nil), base...), churn...))
		for _, tpl := range w.templates {
			for i, src := range tpl.instances {
				want, err := before.expect(src)
				if err != nil {
					t.Fatal(err)
				}
				got, err := after.expect(src)
				if err != nil {
					t.Fatal(err)
				}
				if diff := reference.DiffMultisets(want, got); diff != "" {
					t.Errorf("%s %s fill %d: churn changed the answer: %s", w.name, tpl.name, i, diff)
				}
			}
		}
		if after.judged["hashjoin"] > 0 {
			t.Logf("%s: %d fills judged by the hash-join baseline", w.name, after.judged["hashjoin"])
		}
		probe, err := after.expect(churnProbeQuery)
		if err != nil {
			t.Fatal(err)
		}
		if len(probe) != len(churn) {
			t.Errorf("%s: probe query found %d rows, want %d live churn triples", w.name, len(probe), len(churn))
		}
	}
}

// TestLiveChurnReplaysBatches checks liveChurn against applying the
// batches to a set.
func TestLiveChurnReplaysBatches(t *testing.T) {
	w := &workloads[2]
	set := map[rdf.Triple]bool{}
	for n := 1; n <= 3*churnSlots+3; n++ {
		b := w.churnBatch(4, n-1)
		for _, t := range b.deletes {
			delete(set, t)
		}
		for _, t := range b.inserts {
			set[t] = true
		}
		live := w.liveChurn(4, n)
		if len(live) != len(set) {
			t.Fatalf("after %d batches: liveChurn has %d triples, replay %d", n, len(live), len(set))
		}
		for _, tr := range live {
			if !set[tr] {
				t.Fatalf("after %d batches: liveChurn holds %v, which the replay deleted", n, tr)
			}
		}
	}
}

// TestNormalizeScalesTimesOnly pins which way each metric moves on a slow
// host: times shrink, throughput grows, memory stays raw.
func TestNormalizeScalesTimesOnly(t *testing.T) {
	m := map[string]float64{"query_p50_ms": 2, "queries_per_s": 100, "server_rss_mb": 40, "setup_s": 0.5}
	raw := normalize(m, 2)
	want := map[string]float64{"query_p50_ms": 1, "queries_per_s": 200, "server_rss_mb": 40, "setup_s": 0.25}
	if !reflect.DeepEqual(m, want) || raw["query_p50_ms"] != 2 || raw["queries_per_s"] != 100 {
		t.Errorf("normalized %v, raw %v; want %v", m, raw, want)
	}
}
