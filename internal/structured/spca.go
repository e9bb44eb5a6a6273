package structured

import (
	"fmt"

	"repro/internal/pca"
	"repro/internal/psioa"
)

// SPCA is a structured PCA (Def 4.22): a PCA whose constituents are
// structured, with EAct_X(q) = EAct(config(X)(q)) \ hidden-actions(X)(q).
type SPCA interface {
	pca.PCA
	SPSIOA
}

// StructuredPCA implements SPCA on top of an arbitrary PCA by deriving the
// environment actions from the structured constituents registered in a
// structured registry.
type StructuredPCA struct {
	pca.PCA
	// eacts maps constituent identifiers to their environment-action
	// mappings. Constituents absent from the map are treated as fully
	// environment-facing (EAct = ext), the default of Def 4.17.
	eacts map[string]func(q psioa.State) psioa.ActionSet
}

// StructurePCA wraps x, taking environment-action mappings from the given
// structured constituents (matched by identifier).
func StructurePCA(x pca.PCA, constituents ...SPSIOA) *StructuredPCA {
	eacts := make(map[string]func(q psioa.State) psioa.ActionSet, len(constituents))
	for _, s := range constituents {
		s := s
		eacts[s.ID()] = func(q psioa.State) psioa.ActionSet { return s.EAct(q) }
	}
	return &StructuredPCA{PCA: x, eacts: eacts}
}

// ConfigEAct returns EAct(C) of Def 4.20: the union of the constituents'
// environment actions at their configuration states.
func (s *StructuredPCA) ConfigEAct(c *pca.Config) psioa.ActionSet {
	out := psioa.NewActionSet()
	for _, id := range c.Auts() {
		q, _ := c.StateOf(id)
		if f, ok := s.eacts[id]; ok {
			out.AddAll(f(q))
			continue
		}
		aut, ok := s.PCA.Registry().Lookup(id)
		if !ok {
			panic(fmt.Sprintf("structured: constituent %q not in registry", id))
		}
		out.AddAll(aut.Sig(q).Ext())
	}
	return out
}

// EAct implements SPSIOA per Def 4.22:
// EAct_X(q) = EAct(config(X)(q)) \ hidden-actions(X)(q).
func (s *StructuredPCA) EAct(q psioa.State) psioa.ActionSet {
	return s.ConfigEAct(s.PCA.Config(q)).Minus(s.PCA.HiddenActions(q))
}

// CompatAt delegates compatibility checking to the wrapped PCA.
func (s *StructuredPCA) CompatAt(q psioa.State) error {
	if cc, ok := s.PCA.(interface{ CompatAt(psioa.State) error }); ok {
		return cc.CompatAt(q)
	}
	return nil
}

// ComposeSPCA composes structured PCAs (Lemma 4.23: the composition of
// partially-compatible structured PCAs is a structured PCA). The underlying
// PCAs are composed per Def 2.19 and the environment mappings are merged.
func ComposeSPCA(xs ...*StructuredPCA) (*StructuredPCA, error) {
	inner := make([]pca.PCA, len(xs))
	merged := make(map[string]func(q psioa.State) psioa.ActionSet)
	for i, x := range xs {
		inner[i] = x.PCA
		for id, f := range x.eacts {
			if _, dup := merged[id]; dup {
				return nil, fmt.Errorf("structured: constituent %q appears in two composed structured PCAs", id)
			}
			merged[id] = f
		}
	}
	base, err := pca.ComposePCA(inner...)
	if err != nil {
		return nil, err
	}
	return &StructuredPCA{PCA: base, eacts: merged}, nil
}
