package analysis

import "fmt"

func sprintf(format string, args ...interface{}) string {
	return fmt.Sprintf(format, args...)
}

// FactSet is the fact state of a run: for each analyzer name, a flat
// key→value map. Packages are analyzed dependencies first into one set,
// so every package sees the facts of its whole dependency chain (the
// fact volume is tiny: a few hundred annotated functions module-wide).
type FactSet map[string]map[string]string

// NewFactSet returns an empty fact set.
func NewFactSet() FactSet { return make(FactSet) }

// Get looks up a fact under an analyzer namespace.
func (fs FactSet) Get(analyzer, key string) (string, bool) {
	v, ok := fs[analyzer][key]
	return v, ok
}

// Set records a fact under an analyzer namespace.
func (fs FactSet) Set(analyzer, key, value string) {
	m := fs[analyzer]
	if m == nil {
		m = make(map[string]string)
		fs[analyzer] = m
	}
	m[key] = value
}
