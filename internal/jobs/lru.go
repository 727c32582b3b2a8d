package jobs

import "container/list"

// lruCache is a size-bounded most-recently-used cache of completed jobs.
type lruCache struct {
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type lruEntry struct {
	id  string
	job *job
}

func newLRUCache(cap int) *lruCache {
	return &lruCache{cap: cap, ll: list.New(), items: make(map[string]*list.Element)}
}

func (c *lruCache) get(id string) (*job, bool) {
	e, ok := c.items[id]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(e)
	return e.Value.(*lruEntry).job, true
}

// add inserts (or refreshes) an entry and returns how many were evicted.
func (c *lruCache) add(id string, j *job) int {
	if e, ok := c.items[id]; ok {
		c.ll.MoveToFront(e)
		e.Value.(*lruEntry).job = j
		return 0
	}
	c.items[id] = c.ll.PushFront(&lruEntry{id: id, job: j})
	evicted := 0
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*lruEntry).id)
		evicted++
	}
	return evicted
}

func (c *lruCache) len() int { return c.ll.Len() }
