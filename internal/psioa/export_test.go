package psioa

// ProductOf exposes productOf to the external test package.
var ProductOf = productOf

// TransCacheLen reports how many transition measures p has cached.
func (p *Product) TransCacheLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, s := range p.states {
		for _, d := range s.trans {
			if d != nil {
				n++
			}
		}
	}
	return n
}
