package hotcache

import (
	"sync"
	"testing"
)

// TestSubscribeProtectsFromEviction pins the multicast residency rule:
// a subscribed query's entry survives LRU pressure that would evict
// it, and rejoins the normal LRU economy once the last watcher leaves.
func TestSubscribeProtectsFromEviction(t *testing.T) {
	c := New(Config{MaxEntries: 2})
	qa, qb, qc := q(0, 0, 0.5, 0.5, 1), q(100, 100, 100.5, 100.5, 1), q(200, 200, 200.5, 200.5, 1)
	sub := c.Subscribe()
	sub.Set(qa)
	c.Put(qa, words(1), 1)
	c.Put(qb, words(2), 1)
	c.Put(qc, words(3), 1) // over MaxEntries: must evict b, not the subscribed a
	if _, _, ok := c.Get(qa, nil); !ok {
		t.Fatal("subscribed entry evicted under LRU pressure")
	}
	if _, _, ok := c.Get(qb, nil); ok {
		t.Fatal("unsubscribed entry survived while over the bound")
	}
	sub.Close()
	// With the watcher gone, the next overflow pass may evict a again.
	qd := q(300, 300, 300.5, 300.5, 1)
	c.Put(qd, words(4), 1)
	if st := c.Stats(); st.Entries > 2 {
		t.Fatalf("cache stayed over bound after last unsubscribe: %+v", st)
	}
}

// TestSubscribeRefCounts pins per-query reference counting: the
// entry stays protected until the *last* subscriber leaves, and the
// subscriber gauge tracks open subscriptions.
func TestSubscribeRefCounts(t *testing.T) {
	c := New(Config{MaxEntries: 1})
	qa, qb := q(0, 0, 0.5, 0.5, 1), q(100, 100, 100.5, 100.5, 1)
	s1, s2 := c.Subscribe(), c.Subscribe()
	s1.Set(qa)
	s2.Set(qa)
	if got := c.Stats().Subscribers; got != 2 {
		t.Fatalf("subscribers = %d, want 2", got)
	}
	c.Put(qa, words(1), 1)
	s1.Close()
	c.Put(qb, words(2), 1) // over bound; a still has one watcher
	if _, _, ok := c.Get(qa, nil); !ok {
		t.Fatal("entry lost protection while a subscriber remained")
	}
	s2.Close()
	if got := c.Stats().Subscribers; got != 0 {
		t.Fatalf("subscribers = %d after all closed, want 0", got)
	}
	s2.Close() // idempotent
	c.Put(qb, words(2), 1)
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("unprotected cache not evicted back to bound: %+v", st)
	}
}

// TestSubscribeFollowsViewer pins Set's move semantics: re-pointing a
// subscription releases the old query and protects the new one;
// re-setting the same query is a no-op.
func TestSubscribeFollowsViewer(t *testing.T) {
	c := New(Config{MaxEntries: 1})
	qa, qb := q(0, 0, 0.5, 0.5, 1), q(100, 100, 100.5, 100.5, 1)
	sub := c.Subscribe()
	sub.Set(qa)
	sub.Set(qa) // no-op
	if got := c.Stats().Subscribers; got != 1 {
		t.Fatalf("subscribers = %d, want 1", got)
	}
	sub.Set(qb)
	c.Put(qa, words(1), 1)
	c.Put(qb, words(2), 1)
	// qb is watched; qa is not — the overflow pass must evict qa.
	if _, _, ok := c.Get(qb, nil); !ok {
		t.Fatal("current query lost protection after the move")
	}
	if _, _, ok := c.Get(qa, nil); ok {
		t.Fatal("abandoned query kept protection after the move")
	}
	sub.Close()
}

// TestPayloadHitCounter pins the multicast payoff accounting: every
// successful Payload replay counts.
func TestPayloadHitCounter(t *testing.T) {
	c := New(Config{})
	qa := q(0, 0, 30, 30, 1)
	c.Put(qa, words(1), 1)
	c.SetPayload(qa, 0, []byte{1, 2, 3})
	for i := 0; i < 3; i++ {
		if _, ok := c.Payload(qa, 0); !ok {
			t.Fatal("payload vanished")
		}
	}
	if got := c.Stats().PayloadHits; got != 3 {
		t.Fatalf("PayloadHits = %d, want 3", got)
	}
}

// TestSubscribeConcurrent exercises subscriptions racing Put/Get/evict
// (meaningful under -race). Each goroutine owns its Sub, per the
// contract; the cache operations race freely.
func TestSubscribeConcurrent(t *testing.T) {
	c := New(Config{MaxEntries: 4})
	queries := []struct{ x float64 }{{0}, {100}, {200}, {300}, {400}, {500}, {600}, {700}}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sub := c.Subscribe()
			defer sub.Close()
			for i := 0; i < 200; i++ {
				x := queries[(g+i)%len(queries)].x
				query := q(x, x, x+0.5, x+0.5, 1)
				sub.Set(query)
				c.Put(query, words(int64(i)), 1)
				c.Get(query, nil)
			}
		}(g)
	}
	wg.Wait()
	if got := c.Stats().Subscribers; got != 0 {
		t.Fatalf("subscribers = %d after all closed, want 0", got)
	}
}
