package engine

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
