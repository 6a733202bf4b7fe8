package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/vtags"
)

// countMemory wraps a vtags memory so the traced replay can count and time
// the tag operations the layers above issue, without changing them. The
// idiom is schedfuzz.Wrap's: every thread handle is replaced by one that
// forwards to the backend's.
type countMemory struct {
	inner   *vtags.Memory
	threads []*countThread
}

var _ core.Memory = (*countMemory)(nil)

func wrapVtags(inner *vtags.Memory) *countMemory {
	m := &countMemory{inner: inner, threads: make([]*countThread, inner.NumThreads())}
	for i := range m.threads {
		m.threads[i] = &countThread{inner: inner.Thread(i).(*vtags.Thread)}
	}
	return m
}

func (m *countMemory) NumThreads() int           { return m.inner.NumThreads() }
func (m *countMemory) Thread(id int) core.Thread { return m.threads[id] }
func (m *countMemory) Alloc(words int) core.Addr { return m.inner.Alloc(words) }
func (m *countMemory) MaxTags() int              { return m.inner.MaxTags() }

// tagCounts is one thread's tally. Every call is counted; one call in
// sampleEvery is also timed, which keeps the clock reads from dominating
// a Validate that itself takes tens of nanoseconds. The ns sums include
// one empty timed section per sample, which the report subtracts.
type tagCounts struct {
	loads                                  uint64
	addTags, addTagSamples, addTagNS       uint64
	validates, validateSamples, validateNS uint64
}

const sampleEvery = 16

func (a *tagCounts) add(b *tagCounts) {
	a.loads += b.loads
	a.addTags += b.addTags
	a.addTagSamples += b.addTagSamples
	a.addTagNS += b.addTagNS
	a.validates += b.validates
	a.validateSamples += b.validateSamples
	a.validateNS += b.validateNS
}

// countThread is one counted handle. Like the handle it wraps, it is used
// by one goroutine at a time.
type countThread struct {
	inner *vtags.Thread
	c     tagCounts
}

var _ core.Thread = (*countThread)(nil)

func (t *countThread) ID() int                     { return t.inner.ID() }
func (t *countThread) Alloc(words int) core.Addr   { return t.inner.Alloc(words) }
func (t *countThread) Store(a core.Addr, v uint64) { t.inner.Store(a, v) }
func (t *countThread) CAS(a core.Addr, old, new uint64) bool {
	return t.inner.CAS(a, old, new)
}
func (t *countThread) RemoveTag(a core.Addr, size int) { t.inner.RemoveTag(a, size) }
func (t *countThread) VAS(a core.Addr, v uint64) bool  { return t.inner.VAS(a, v) }
func (t *countThread) IAS(a core.Addr, v uint64) bool  { return t.inner.IAS(a, v) }
func (t *countThread) ClearTagSet()                    { t.inner.ClearTagSet() }
func (t *countThread) TagCount() int                   { return t.inner.TagCount() }

func (t *countThread) Load(a core.Addr) uint64 {
	t.c.loads++
	return t.inner.Load(a)
}

func (t *countThread) AddTag(a core.Addr, size int) bool {
	t.c.addTags++
	if t.c.addTags%sampleEvery != 0 {
		return t.inner.AddTag(a, size)
	}
	t0 := time.Now()
	ok := t.inner.AddTag(a, size)
	t.c.addTagNS += uint64(time.Since(t0))
	t.c.addTagSamples++
	return ok
}

func (t *countThread) Validate() bool {
	t.c.validates++
	if t.c.validates%sampleEvery != 0 {
		return t.inner.Validate()
	}
	t0 := time.Now()
	ok := t.inner.Validate()
	t.c.validateNS += uint64(time.Since(t0))
	t.c.validateSamples++
	return ok
}

// The optional interfaces layers type-assert on a thread handle: the
// per-thread op clock (serve, reclaim, workload) and lax-clock enrolment
// (vacation's recorded suite, workload; a no-op on vtags, which has no
// clock to synchronize), plus the eviction hooks schedfuzz drives.

func (t *countThread) OpClock() (clock, fails uint64)    { return t.inner.OpClock() }
func (t *countThread) SetActive(bool)                    {}
func (t *countThread) TaggedLine(i int) core.Line        { return t.inner.TaggedLine(i) }
func (t *countThread) ForceTagEviction(l core.Line) bool { return t.inner.ForceTagEviction(l) }
