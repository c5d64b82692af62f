package analysis

import "sort"

// Keys returns the sorted keys under one analyzer namespace.
func (fs FactSet) Keys(analyzer string) []string {
	var out []string
	for k := range fs[analyzer] {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
