package sched

// TreeColumns returns the parent and step IDs of em's expansion tree,
// indexed by node ID.
func TreeColumns(em *ExecMeasure) (parent, step []uint32) {
	for _, nd := range em.tree {
		parent, step = append(parent, nd.parent), append(step, nd.step)
	}
	return parent, step
}

// DyadicMax is the DAG's exponent bound (see DAGMeasure.Dyadic).
const DyadicMax = dyadicMax

// PruneBelow is the kernels' pruning threshold.
const PruneBelow = pruneBelow
