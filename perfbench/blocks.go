package main

import (
	"sort"
	"time"
)

// The host this benchmark targets loses 10-45% of its CPU time to the
// hypervisor in bursts of seconds to minutes (steal). Every wall-clock
// metric moves with it. A timed phase is therefore cut into blocks, the
// steal share of each block is measured from /proc/stat, and the metrics
// are computed over the quieter half of the blocks: a burst covering less
// than half of a run no longer moves its numbers, and the run reports how
// much steal it kept and dropped.

// block is one slice of a timed phase.
type block struct {
	start, end time.Time
	st0, st1   cpuStat
}

func (b *block) steal() float64 { return stealShare(b.st0, b.st1) }

// blockClock cuts a phase into blocks as ops start. between, if set,
// runs at each block boundary, outside every block.
type blockClock struct {
	length  time.Duration
	list    []block
	between func()
}

func newBlockClock(length time.Duration) *blockClock {
	c := &blockClock{length: length}
	c.open(time.Now())
	return c
}

func (c *blockClock) open(now time.Time) {
	c.list = append(c.list, block{start: now, st0: readCPUStat()})
}

func (c *blockClock) close(now time.Time) {
	b := &c.list[len(c.list)-1]
	b.end, b.st1 = now, readCPUStat()
}

// at returns the index of the block an op starting now belongs to,
// starting a new block when the current one is full.
func (c *blockClock) at(now time.Time) int {
	if now.Sub(c.list[len(c.list)-1].start) >= c.length {
		c.close(now)
		if c.between != nil {
			c.between()
			now = time.Now()
		}
		c.open(now)
	}
	return len(c.list) - 1
}

// finish closes the last block and returns all of them.
func (c *blockClock) finish() []block {
	c.close(time.Now())
	return c.list
}

// calmSteal is a steal share low enough that a block is kept even
// outside the quieter half.
const calmSteal = 0.01

// quietest returns which blocks to keep: the half (rounded up) with the
// lowest steal share, earlier blocks first on ties, and every block with
// less than calmSteal.
func quietest(bs []block) []bool {
	idx := make([]int, len(bs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return bs[idx[a]].steal() < bs[idx[b]].steal() })
	keep := make([]bool, len(bs))
	for _, i := range idx[:(len(bs)+1)/2] {
		keep[i] = true
	}
	for i := range bs {
		if bs[i].steal() < calmSteal {
			keep[i] = true
		}
	}
	return keep
}

// blockOf returns the index of the block containing t, or -1.
func blockOf(bs []block, t time.Time) int {
	i := sort.Search(len(bs), func(i int) bool { return bs[i].end.After(t) })
	if i < len(bs) && !t.Before(bs[i].start) {
		return i
	}
	return -1
}

// stealOver is the steal share across the given blocks.
func stealOver(bs []block, keep []bool, want bool) float64 {
	var a, b cpuStat
	for i, bl := range bs {
		if keep[i] == want {
			a.total += bl.st0.total
			a.steal += bl.st0.steal
			b.total += bl.st1.total
			b.steal += bl.st1.steal
		}
	}
	return stealShare(a, b)
}
