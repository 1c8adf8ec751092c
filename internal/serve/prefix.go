package serve

import (
	"slices"
	"sync"

	"repro/internal/gen"
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

// prefixCache holds what the engine knows of prompts it keeps seeing, as
// immutable model.Prefix values requests fork from by reference. A served
// prompt is always prefilled clean — fault and checker are armed at
// admission, after it — so its rows are a pure function of its tokens and
// any request may read another's. An engine that injects caches more: the
// prompt decoded clean (a gen.Record), its rows the prompt's and then the
// decode's, with the decode positions' depth planes, which an injected
// request of the prompt enters at the first step its fault can reach and,
// in each step that matches, at the first sublayer it can (Engine.fork).
// Any other prompt forks only the prompt rows of either kind of entry.
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

// prefixEntry is one cached prompt. Everything but used is immutable once
// inserted.
type prefixEntry struct {
	prompt []int
	// prefix holds the prompt's rows: the state at its end, or the state a
	// clean decode of it finished on.
	prefix *model.Prefix
	// rec, when non-nil, is that decode (Engine.decodeClean), and text its
	// tokens decoded by the engine's vocabulary ("" without one): a
	// response with these tokens shares it.
	rec  *gen.Record
	text string
	used uint64
}

// holds reports whether the entry serves every request for prompt, so
// that prompt needs no entry of its own: a post-prompt entry serves every
// prompt it begins with, a clean decode only its own.
func (e *prefixEntry) holds(prompt []int) bool {
	n := commonPrefix(e.prompt, prompt)
	return n == len(prompt) && (e.rec == nil || n == len(e.prompt))
}

// newPrefixCache sizes the cache for m behind a batch of width rows:
// 3 × width × MaxSeq cached positions, what the batch and its admission
// queue of 2 × width could hold at full context, each counted with its
// K/V rows and, when depth is set (an injecting engine's clean decodes
// record them), its depth planes.
func newPrefixCache(m *model.Model, width int, depth bool, met *Metrics) *prefixCache {
	cfg := &m.Cfg
	return &prefixCache{budget: 3 * width * cfg.MaxSeq * cfg.PositionBytes(depth), met: met}
}

// lookup notes a sighting of prompt and returns the cached entry sharing
// the most leading tokens with it — prompt's own among equals — and how
// many of them a request for prompt may prefill from: at most
// len(prompt)-1, since the last token must be computed for its logits.
// hit.rec is nil unless the entry is prompt's own clean decode. admit
// reports that the caller should insert an entry for prompt once it has
// one: this is at least its third sighting and no entry holds it.
func (c *prefixCache) lookup(prompt []int) (hit prefixEntry, reuse int, admit bool) {
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
		n := commonPrefix(c.entries[i].prompt, prompt)
		if n > lcp || (n > 0 && n == lcp && len(c.entries[i].prompt) == n) {
			best, lcp = i, n
		}
	}
	held := false
	if best >= 0 {
		e := &c.entries[best]
		e.used = c.tick
		hit, held = *e, e.holds(prompt)
		if !held {
			hit.rec = nil // another prompt's decode: only its prompt rows serve
		}
	}
	return hit, min(lcp, len(prompt)-1), sightings >= admitSightings && !held
}

// insert caches ent, evicting least recently used entries to stay inside
// the budget. A prompt an entry holds, as a concurrent request may have
// inserted meanwhile, or whose rows alone exceed the budget, is dropped.
func (c *prefixCache) insert(ent prefixEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	size := ent.prefix.Bytes()
	if size > c.budget {
		return
	}
	for i := range c.entries {
		if c.entries[i].holds(ent.prompt) {
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
	ent.prompt, ent.used = slices.Clone(ent.prompt), c.tick
	c.entries = append(c.entries, ent)
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
