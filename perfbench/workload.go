package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"regexp"
	"strconv"

	"parj/internal/lubm"
	"parj/internal/rdf"
	"parj/internal/watdiv"
)

// Workload scales. LUBM 64 (~454k triples, 6.9 MB of CSR) is well past a
// 4 MiB L2; WatDiv 10 (~63k triples, 1.1 MB of CSR) fits in it.
const (
	lubmScale   = 64
	watdivScale = 10
)

// poolSize is the number of constant fills per WatDiv template that
// carries IRI constants. The pool is fixed; the seed only orders it, so
// every seed measures the same mix of result sizes.
const poolSize = 4

// Churn shape. Every batch deletes the generation a slot held one lap ago
// and inserts the slot's other generation, so after the first lap the
// store size and the dictionary are stationary. Batches fall due on the
// read clock rather than the wall clock: a wall-clock rate gives a read
// slowed by steal more write work to share, which moved every churn
// metric with steal (on a 2-vCPU host, CPU per read rose from 4.9 to
// 7.0 ms in runs with 1.5% steal). About one read in writeEvery then meets
// a fresh epoch, inside the 5-25% band.
const (
	churnSlots    = 16 // batches a generation stays live
	churnEntities = 24 // fresh subjects per watdiv-churn batch, each with one scanned-predicate triple and one marker triple
	probeEntities = 1  // fresh subjects per write-probe batch of the read-only workloads
	writeEvery    = 10 // reads per churn batch: one batch falls due when every tenth read completes
)

const (
	watdivNS   = "http://watdiv.repro/"
	churnNS    = "http://perfbench.churn/"
	churnMark  = "<" + churnNS + "marker>"
	probeCount = 300 // write-probe batches the traced run replays after the reads of a read-only workload
)

type workloadSpec struct {
	name  string
	why   string
	churn bool
	// byHand marks a workload BENCHMARK.json does not list: it runs only
	// when asked for by name.
	byHand    bool
	templates []template
	// churnPreds are the predicates the churn and probe batches write:
	// the ones the reads scan. IRI-valued ones get a fresh IRI object,
	// literal-valued ones a fresh literal.
	churnPreds []churnPred
}

type churnPred struct {
	iri     string
	literal bool
}

// template is one query shape with its constant fills.
type template struct {
	name      string
	instances []string // SPARQL text per fill
}

// instance addresses one fill of one template.
type instance struct {
	t, i int
}

var workloads = []workloadSpec{
	{
		name:      "lubm-analytic",
		why:       "LUBM L1-L10 at scale 64 with full rows: join execution, row decode and JSON encoding dominate; planning is under 2%",
		templates: lubmTemplates(),
		churnPreds: []churnPred{
			{lubm.PredTakesCourse, false}, {lubm.PredTeacherOf, false}, {lubm.PredWorksFor, false},
			{lubm.PredMemberOf, false}, {lubm.PredAdvisor, false}, {lubm.PredEmail, true},
		},
	},
	{
		name:       "watdiv-serve",
		why:        "watdiv-churn's reads without the writes: the quiesced baseline of the churn-vs-quiesced ratio",
		byHand:     true,
		templates:  watdivTemplates(),
		churnPreds: watdivChurnPreds(),
	},
	{
		name:       "watdiv-churn",
		why:        "20 WatDiv basic templates at scale 10, pooled constants, plus result-neutral /write batches to a WAL group-commit server: HTTP, parse, planning and epoch merges",
		churn:      true,
		templates:  watdivTemplates(),
		churnPreds: watdivChurnPreds(),
	},
}

func findWorkload(name string) (*workloadSpec, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func (w *workloadSpec) lubm() bool { return w.name == "lubm-analytic" }

// entities is the number of fresh subjects per write batch. The write
// probe of the read-only workloads uses small batches, so it measures the
// per-batch cost without setting off a reconcile every few batches.
func (w *workloadSpec) entities() int {
	if w.churn {
		return churnEntities
	}
	return probeEntities
}

// triples generates the workload's dataset. The generators are
// deterministic by scale, so the dataset is the same for every seed; the
// seed drives the op streams.
func (w *workloadSpec) triples() []rdf.Triple {
	if w.lubm() {
		return lubm.Triples(lubmScale, lubm.Config{})
	}
	return watdiv.Triples(watdivScale, watdiv.Config{})
}

// nTriples renders triples as an N-Triples document.
func nTriples(ts []rdf.Triple) []byte {
	var b bytes.Buffer
	for _, t := range ts {
		b.WriteString(t.S)
		b.WriteByte(' ')
		b.WriteString(t.P)
		b.WriteByte(' ')
		b.WriteString(t.O)
		b.WriteString(" .\n")
	}
	return b.Bytes()
}

func lubmTemplates() []template {
	var out []template
	for _, q := range lubm.Queries() {
		out = append(out, template{name: q.Name, instances: []string{q.SPARQL}})
	}
	return out
}

// watdivClasses sizes each entity class at watdivScale, so a fill never
// names an entity the generator did not emit.
var watdivClasses = map[string]int{
	"genre": 15, "country": 10, "city": 20,
	"user": 400 * watdivScale, "product": 200 * watdivScale,
	"website": 25 * watdivScale, "retailer": 12 * watdivScale,
}

var watdivConst = regexp.MustCompile(`<` + regexp.QuoteMeta(watdivNS) + `(genre|country|city|user|product|website|retailer)(\d+)>`)

// watdivTemplates fills every IRI constant of a template with the entity
// i places after it in its class, for i in [0, poolSize). Literal
// constants stay fixed; templates without IRI constants have one fill.
func watdivTemplates() []template {
	var out []template
	for _, q := range watdiv.BasicQueries() {
		t := template{name: q.Name}
		if !watdivConst.MatchString(q.SPARQL) {
			t.instances = []string{q.SPARQL}
		} else {
			for i := 0; i < poolSize; i++ {
				t.instances = append(t.instances, watdivConst.ReplaceAllStringFunc(q.SPARQL, func(m string) string {
					sub := watdivConst.FindStringSubmatch(m)
					n, _ := strconv.Atoi(sub[2]) // the regexp admits only digits
					return fmt.Sprintf("<%s%s%d>", watdivNS, sub[1], (n+i)%watdivClasses[sub[1]])
				}))
			}
		}
		out = append(out, t)
	}
	return out
}

func watdivChurnPreds() []churnPred {
	return []churnPred{
		{watdiv.PredFollows, false}, {watdiv.PredLikes, false}, {watdiv.PredHasReview, false},
		{watdiv.PredReviewer, false}, {watdiv.PredGenre, false}, {watdiv.PredSoldBy, false},
		{watdiv.PredSubscribes, false}, {watdiv.PredNationality, false}, {watdiv.PredNickname, true},
	}
}

// instances lists every (template, fill) pair in template order.
func (w *workloadSpec) instances() []instance {
	var out []instance
	for t, tpl := range w.templates {
		for i := range tpl.instances {
			out = append(out, instance{t, i})
		}
	}
	return out
}

// readStream yields the seeded closed-loop read order: rounds, each a
// seeded permutation of every (template, fill) pair, so every fill is
// read equally often whatever the seed. watdiv-serve and watdiv-churn
// share it for a given seed.
type readStream struct {
	rng   *rand.Rand
	all   []instance
	round []instance
}

func newReadStream(w *workloadSpec, seed int64) *readStream {
	return &readStream{rng: rand.New(rand.NewSource(seed)), all: w.instances()}
}

func (s *readStream) next() instance {
	if len(s.round) == 0 {
		s.round = append(s.round[:0], s.all...)
		s.rng.Shuffle(len(s.round), func(i, j int) { s.round[i], s.round[j] = s.round[j], s.round[i] })
	}
	op := s.round[0]
	s.round = s.round[1:]
	return op
}

// batch is one /write request: deletes apply before inserts.
type batch struct {
	inserts, deletes []rdf.Triple
}

// churnGeneration returns the triples slot holds in generation gen. Every
// subject and object is a fresh term that no other triple mentions except
// the subject's marker triple, whose predicate no read uses. A read
// pattern matching a churn triple therefore shares a variable with some
// other pattern (every template is a connected BGP of at least two
// patterns over distinct predicates) that no triple can satisfy, so the
// batches never change a read's answer. The self-tests confirm this
// against the reference oracle.
func (w *workloadSpec) churnGeneration(seed int64, slot, gen int) []rdf.Triple {
	n := w.entities()
	out := make([]rdf.Triple, 0, 2*n)
	for e := 0; e < n; e++ {
		id := fmt.Sprintf("s%d/g%d/k%d/e%d", seed, gen, slot, e)
		s := "<" + churnNS + "s/" + id + ">"
		p := w.churnPreds[(slot*n+e)%len(w.churnPreds)]
		o := "<" + churnNS + "o/" + id + ">"
		if p.literal {
			o = strconv.Quote("churn " + id)
		}
		out = append(out, rdf.Triple{S: s, P: p.iri, O: o}, rdf.Triple{S: s, P: churnMark, O: strconv.Quote(id)})
	}
	return out
}

// churnBatch returns batch j of the seeded write stream.
func (w *workloadSpec) churnBatch(seed int64, j int) batch {
	slot, lap := j%churnSlots, j/churnSlots
	b := batch{inserts: w.churnGeneration(seed, slot, lap%2)}
	if lap > 0 {
		b.deletes = w.churnGeneration(seed, slot, (lap-1)%2)
	}
	return b
}

// liveChurn returns the churn triples present after batches [0, n).
func (w *workloadSpec) liveChurn(seed int64, n int) []rdf.Triple {
	var out []rdf.Triple
	for slot := 0; slot < churnSlots && slot < n; slot++ {
		last := slot + ((n-1-slot)/churnSlots)*churnSlots // last batch that wrote this slot
		out = append(out, w.churnGeneration(seed, slot, (last/churnSlots)%2)...)
	}
	return out
}

// churnProbeQuery lists every live churn triple through its marker.
const churnProbeQuery = "SELECT ?s ?p ?o WHERE { ?s " + churnMark + " ?m . ?s ?p ?o }"
