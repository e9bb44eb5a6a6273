package engine

import "hash/maphash"

// Values returns every value the cache holds, in no particular order.
func (c *Cache) Values() []any {
	var out []any
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for el := sh.ll.Front(); el != nil; el = el.Next() {
			out = append(out, el.Value.(*centry).val)
		}
		sh.mu.Unlock()
	}
	return out
}

// Outcomes renders a distribution as a simulate result's rows.
var Outcomes = outcomes

// AnswerOverhead is what an answer-store entry retains besides its bytes.
const AnswerOverhead = answerOverhead

// Plant stores res in the slot of the request under, as the answer to the
// request as: what a hash collision between the two requests would leave.
func (a *Answers) Plant(under, as Job, res *Result) {
	data, _ := EncodeResult(res)
	e := &answer{h: maphash.Bytes(a.seed, under.canonical()), req: string(as.canonical()), data: data}
	a.mu.Lock()
	defer a.mu.Unlock()
	if old, ok := a.items[e.h]; ok {
		a.remove(old)
	}
	a.items[e.h] = a.ll.PushFront(e)
	a.bytes += e.cost()
}

// Entries returns the number of stored answers and the bytes of their
// keys and values.
func (a *Answers) Entries() (n int, keyBytes, valueBytes int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for el := a.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*answer)
		n, keyBytes, valueBytes = n+1, keyBytes+int64(len(e.req)), valueBytes+int64(len(e.data))
	}
	return n, keyBytes, valueBytes
}
