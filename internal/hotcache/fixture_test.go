package hotcache

import "repro/internal/index"

// Get and Put reach the table without an index, so that tests can fill
// it with chosen words to pin its LRU, byte bounds, payloads and
// subscriptions. The serve path goes through Search alone.

// Get looks the query up. On a hit it appends the cached words to buf
// and returns the extended buffer, the node I/O the populating search cost
// (responses must replay it to stay byte-identical to an uncached
// serve), and true. An unfilled entry is a miss.
func (c *Cache) Get(q index.Query, buf []index.Word) ([]index.Word, int64, bool) {
	c.mu.Lock()
	e := c.m[q]
	if e == nil || e.done != nil {
		c.n.Misses++
		c.mu.Unlock()
		return buf, 0, false
	}
	c.touchLocked(e)
	c.n.Hits++
	words, io := e.words, e.io
	c.mu.Unlock()
	return append(buf, words...), io, true
}

// Put stores a search result, its ids as index.SearchWords returns them.
// words is copied; the caller keeps ownership of its buffer. A query the
// cache already holds keeps its entry, which has the same words and may
// carry a payload. q must equal itself (no NaN field): an entry keyed by
// it could never be found or evicted.
func (c *Cache) Put(q index.Query, words []index.Word, io int64) {
	e := &entry{
		q:     q,
		io:    io,
		bytes: entryOverhead + int64(len(words))*wordBytes,
	}
	if len(words) > 0 {
		e.words = append([]index.Word(nil), words...)
	}
	c.mu.Lock()
	if c.m[q] == nil {
		c.m[q] = e
		c.insertLocked(e)
	}
	c.mu.Unlock()
}
