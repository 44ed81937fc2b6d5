package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parj/internal/wal"
)

// span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer started.
type span struct {
	Name   string `json:"name"`
	Trace  int64  `json:"trace"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for an op's root
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer keeps every span in memory; write dumps them when the run ends.
// The op the replay is in is published for spans recorded on other
// goroutines, such as the WAL flusher's fsyncs.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span

	curTrace  atomic.Int64
	curParent atomic.Int32
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.curParent.Store(-1)
	return t
}

func (t *tracer) begin(name string, trace int64, parent int32) int32 {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Trace: trace, ID: id, Parent: parent, Start: now})
	return id
}

func (t *tracer) end(id int32) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// within marks spans recorded on other goroutines as children of parent
// in trace until the returned function is called.
func (t *tracer) within(trace int64, parent int32) func() {
	t.curTrace.Store(trace)
	t.curParent.Store(parent)
	return func() {
		t.curTrace.Store(0)
		t.curParent.Store(-1)
	}
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	return f.Close()
}

// covered returns the length of the union of intervals clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		s, e := max(x[0], lo), min(x[1], hi)
		if e <= s {
			continue
		}
		switch {
		case !open:
			curS, curE, open = s, e, true
		case s <= curE:
			curE = max(curE, e)
		default:
			total += curE - curS
			curS, curE = s, e
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// countingFS wraps the WAL's filesystem: it counts the bytes and fsyncs
// that reach segment files and records a span per write and fsync.
type countingFS struct {
	wal.FS
	tr *tracer

	segBytes atomic.Int64
	segSyncs atomic.Int64
}

func (c *countingFS) wrap(name string, f wal.File, err error) (wal.File, error) {
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c, seg: strings.HasPrefix(name, "wal-")}, nil
}

func (c *countingFS) Create(name string) (wal.File, error) {
	f, err := c.FS.Create(name)
	return c.wrap(name, f, err)
}

func (c *countingFS) OpenAppend(name string) (wal.File, error) {
	f, err := c.FS.OpenAppend(name)
	return c.wrap(name, f, err)
}

func (c *countingFS) SyncDir() error {
	id := c.tr.begin("wal.syncdir", c.tr.curTrace.Load(), c.tr.curParent.Load())
	defer c.tr.end(id)
	return c.FS.SyncDir()
}

type countingFile struct {
	wal.File
	fs  *countingFS
	seg bool
}

func (f *countingFile) Write(p []byte) (int, error) {
	tr := f.fs.tr
	id := tr.begin("wal.write", tr.curTrace.Load(), tr.curParent.Load())
	n, err := f.File.Write(p)
	tr.end(id)
	if f.seg {
		f.fs.segBytes.Add(int64(n))
	}
	return n, err
}

func (f *countingFile) Sync() error {
	tr := f.fs.tr
	id := tr.begin("wal.sync", tr.curTrace.Load(), tr.curParent.Load())
	err := f.File.Sync()
	tr.end(id)
	if f.seg {
		f.fs.segSyncs.Add(1)
	}
	return err
}

func newCountingFS(dir string, tr *tracer) (*countingFS, error) {
	fs, err := wal.NewOSFS(dir)
	if err != nil {
		return nil, err
	}
	return &countingFS{FS: fs, tr: tr}, nil
}

func traceFile(e *env) string {
	return filepath.Join(e.root, ".bench_build", fmt.Sprintf("trace-%s-%d.jsonl", e.w.name, e.seed))
}
