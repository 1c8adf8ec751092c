package serve

import (
	"sync"

	"repro/internal/model"
)

// sightingWindow is how many recent prompts the cache remembers having
// seen: a prompt is admitted when it comes a third time within this many
// requests.
const sightingWindow = 512

// admitSightings is the sighting a prompt is cached at. The first proves
// nothing and the second is what a client replaying its warm-up produces
// once; a prompt that comes a third time is being cycled.
const admitSightings = 3

// prefixCache holds the post-prompt KV rows of prompts the engine keeps
// seeing, as immutable model.Prefix values requests fork from by
// reference. A served prompt is always prefilled clean — fault and
// checker are armed at admission, after it — so its rows are a pure
// function of its tokens and any request may read another's.
//
// Entries are few (the budget is a few dozen prompts) and lookup wants
// the longest common token prefix, not equality, so they are a slice
// that is scanned. Eviction is least recently used under a byte budget.
type prefixCache struct {
	budget int
	met    *Metrics // insertions report the bytes held and entries evicted

	mu      sync.Mutex
	entries []prefixEntry          //llmfi:guardedby mu
	bytes   int                    //llmfi:guardedby mu
	tick    uint64                 //llmfi:guardedby mu — advances on every lookup; an entry's used is its last hit
	seen    [sightingWindow]uint64 //llmfi:guardedby mu — ring of the last prompts' hashes
	seenAt  int                    //llmfi:guardedby mu
}

type prefixEntry struct {
	prompt []int
	prefix *model.Prefix
	used   uint64
}

// newPrefixCache sizes the cache for m behind a batch of width rows:
// 3 × width × MaxSeq cached positions, what the batch and its admission
// queue of 2 × width could hold at full context.
func newPrefixCache(m *model.Model, width int, met *Metrics) *prefixCache {
	cfg := &m.Cfg
	return &prefixCache{budget: 3 * width * cfg.MaxSeq * 2 * cfg.NBlocks * cfg.DModel * 4, met: met}
}

// lookup notes a sighting of prompt and returns the cached prefix sharing
// the most leading tokens with it and how many of them a request for
// prompt may reuse: at most len(prompt)-1, since the last token must be
// computed for its logits. admit reports that the caller should insert
// prompt's own rows once it has them: this is at least its third sighting
// and no entry already holds all of it.
func (c *prefixCache) lookup(prompt []int) (px *model.Prefix, reuse int, admit bool) {
	h := hashPrompt(prompt)
	c.mu.Lock()
	defer c.mu.Unlock()

	sightings := 1
	for _, s := range c.seen {
		if s == h {
			sightings++
		}
	}
	c.seen[c.seenAt] = h
	c.seenAt = (c.seenAt + 1) % sightingWindow

	c.tick++
	best, lcp := -1, 0
	for i := range c.entries {
		if n := commonPrefix(c.entries[i].prompt, prompt); n > lcp {
			best, lcp = i, n
		}
	}
	if best >= 0 {
		c.entries[best].used = c.tick
		px = c.entries[best].prefix
	}
	return px, min(lcp, len(prompt)-1), sightings >= admitSightings && lcp < len(prompt)
}

// insert caches px, the rows of prompt, evicting least recently used
// entries to stay inside the budget. A prompt that a concurrent request
// has inserted meanwhile, or that alone exceeds the budget, is dropped.
func (c *prefixCache) insert(prompt []int, px *model.Prefix) {
	c.mu.Lock()
	defer c.mu.Unlock()
	size := px.Bytes()
	if size > c.budget {
		return
	}
	for i := range c.entries {
		if commonPrefix(c.entries[i].prompt, prompt) == len(prompt) {
			return
		}
	}
	evicted := 0
	for c.bytes+size > c.budget {
		lru := 0
		for i := range c.entries {
			if c.entries[i].used < c.entries[lru].used {
				lru = i
			}
		}
		c.bytes -= c.entries[lru].prefix.Bytes()
		c.entries[lru] = c.entries[len(c.entries)-1]
		c.entries[len(c.entries)-1] = prefixEntry{}
		c.entries = c.entries[:len(c.entries)-1]
		evicted++
	}
	c.entries = append(c.entries, prefixEntry{prompt: append([]int(nil), prompt...), prefix: px, used: c.tick})
	c.bytes += size
	// Under the lock, so the gauge never lags a concurrent insertion.
	c.met.observePrefixCache(evicted, c.bytes)
}

func commonPrefix(a, b []int) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// hashPrompt is 64-bit FNV-1a over the token ids. It only counts
// sightings: a collision admits a prompt a request early.
func hashPrompt(prompt []int) uint64 {
	h := uint64(14695981039346656037)
	for _, tok := range prompt {
		h = (h ^ uint64(tok)) * 1099511628211
	}
	return h
}
