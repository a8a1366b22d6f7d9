package core

import "maps"

// CloneVertexIndexes deep-copies the user attribute indexes several
// engines keep as name → value → set of vertex IDs (Section 6.4), for
// their Cloner implementations: every level is a map the owning
// engine mutates in place, so nothing is shared.
func CloneVertexIndexes(m map[string]map[Value]map[ID]struct{}) map[string]map[Value]map[ID]struct{} {
	out := make(map[string]map[Value]map[ID]struct{}, len(m))
	for name, idx := range m {
		c := make(map[Value]map[ID]struct{}, len(idx))
		for v, set := range idx {
			c[v] = maps.Clone(set)
		}
		out[name] = c
	}
	return out
}
