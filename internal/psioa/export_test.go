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

// SigEntries reports how many signature entries p holds and how many of
// them have composed their signature.
func (p *Product) SigEntries() (entries, composed int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, e := range p.entries {
		entries++
		if e.sig.Load() != nil {
			composed++
		}
	}
	return entries, composed
}
