package rewrite

import (
	"sparseap/internal/automata"
	"sparseap/internal/dataflow"
	"sparseap/internal/symset"
)

// BisimPartition returns the class label of every state in the
// partition planMerge refines, for comparison against a reference.
func BisimPartition(net *automata.Network, alphabet symset.Set) []int32 {
	p := &plan{net: net, opts: Options{Alphabet: alphabet}, facts: dataflow.Analyze(net, alphabet)}
	label, _ := p.bisimPartition()
	return label
}
