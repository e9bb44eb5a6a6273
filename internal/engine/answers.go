package engine

import (
	"container/list"
	"context"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Observability instruments for the answer store.
var (
	cAnswerHits   = obs.C("engine.answers.hits")
	cAnswerMisses = obs.C("engine.answers.misses")
	gAnswerBytes  = obs.G("engine.answers.bytes")
)

// AnswerBytes is the retained-byte budget of dsed's answer store, keys
// included. A few hundred KiB hold a few hundred small answers; a larger
// store raised the daemon's peak RSS past what the answers saved (see
// docs/PERFORMANCE.md, "Answer store").
const AnswerBytes = 256 << 10

// answerOverhead is what an entry retains besides its key and value bytes:
// its list element, its entry struct and its map slot.
const answerOverhead = 128

// Answers is a byte-bounded LRU map from a job's canonical request (the
// bytes Job.Fingerprint hashes) to the job's encoded result (EncodeResult).
// Runner.Run consults it before running a job that resolves purely and
// publishes each such job's stored result to it, so a resent request is
// answered without resolving, composing or walking anything. Entries are
// found by a seeded hash of the request and hold the whole request, which a
// lookup compares, so two requests that share a hash never share an
// answer. The store holds bytes only: no automaton, measure or result
// value outlives the job that made it. It is safe for concurrent use; a nil
// store serves nothing and keeps nothing.
type Answers struct {
	seed maphash.Seed
	max  int64

	mu    sync.Mutex
	bytes int64
	ll    *list.List // front = most recently used
	items map[uint64]*list.Element

	hits, misses atomic.Int64
}

// answer is one stored entry.
type answer struct {
	h    uint64
	req  string
	data []byte
}

func (e *answer) cost() int64 { return int64(len(e.req)+len(e.data)) + answerOverhead }

// AnswerStats is a point-in-time view of an answer store.
type AnswerStats struct {
	Len      int   `json:"len"`
	Bytes    int64 `json:"bytes"`
	MaxBytes int64 `json:"max_bytes"`
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
}

// NewAnswers returns an empty answer store that retains at most maxBytes.
func NewAnswers(maxBytes int64) *Answers {
	return &Answers{seed: maphash.MakeSeed(), max: maxBytes, ll: list.New(), items: make(map[uint64]*list.Element)}
}

// Stats returns the store's occupancy and traffic; zero for a nil store.
func (a *Answers) Stats() AnswerStats {
	if a == nil {
		return AnswerStats{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return AnswerStats{Len: len(a.items), Bytes: a.bytes, MaxBytes: a.max, Hits: a.hits.Load(), Misses: a.misses.Load()}
}

// get returns the stored result of the request req, decoded for a job of
// the given kind, or nil. The lookup and decode are the job's
// engine.answer phase.
func (a *Answers) get(ctx context.Context, req []byte, kind string) *Result {
	c := obs.Enter(ctx, obs.LayerAnswer, kind)
	defer c.End()
	var data []byte
	a.mu.Lock()
	if el, ok := a.items[maphash.Bytes(a.seed, req)]; ok {
		if e := el.Value.(*answer); e.req == string(req) {
			a.ll.MoveToFront(el)
			data = e.data
		}
	}
	a.mu.Unlock()
	res := DecodeResult(data, kind)
	if res == nil {
		a.misses.Add(1)
		cAnswerMisses.Inc()
		return nil
	}
	a.hits.Add(1)
	cAnswerHits.Inc()
	return res
}

// put stores res as the answer to req by EncodeResult's rule, evicting the
// least recently used entries past the byte budget. A result EncodeResult
// refuses, or one larger than the whole budget, is not stored. Encoding
// and storing are the job's second engine.answer phase call.
func (a *Answers) put(ctx context.Context, req []byte, res *Result) {
	c := obs.Enter(ctx, obs.LayerAnswer, res.Kind)
	defer c.End()
	data, ok := EncodeResult(res)
	if !ok {
		return
	}
	e := &answer{h: maphash.Bytes(a.seed, req), req: string(req), data: data}
	if e.cost() > a.max {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if old, ok := a.items[e.h]; ok {
		// The same request stored by a concurrent run, or another request
		// under the same hash: the newer entry replaces it.
		a.remove(old)
	}
	a.items[e.h] = a.ll.PushFront(e)
	a.bytes += e.cost()
	for a.bytes > a.max {
		a.remove(a.ll.Back())
	}
	gAnswerBytes.Set(a.bytes)
}

// remove drops one entry; the caller holds a.mu.
func (a *Answers) remove(el *list.Element) {
	e := a.ll.Remove(el).(*answer)
	delete(a.items, e.h)
	a.bytes -= e.cost()
}
