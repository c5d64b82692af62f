package analysis

import (
	"encoding/json"
	"fmt"
)

func sprintf(format string, args ...interface{}) string {
	return fmt.Sprintf(format, args...)
}

// FactSet is the serializable fact state of one package: for each
// analyzer name, a flat key→value map. A package's exported set is the
// union of its own facts and everything imported from its dependency
// chain, so fact propagation is transitive by construction (the fact
// volume is tiny: a few hundred annotated functions module-wide).
type FactSet map[string]map[string]string

// NewFactSet returns an empty fact set.
func NewFactSet() FactSet { return make(FactSet) }

// Merge folds other into fs.
func (fs FactSet) Merge(other FactSet) {
	for a, kv := range other {
		m := fs[a]
		if m == nil {
			m = make(map[string]string, len(kv))
			fs[a] = m
		}
		for k, v := range kv {
			m[k] = v
		}
	}
}

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

// Encode serializes the set deterministically (sorted keys, stable
// bytes) so vetx outputs are cache-friendly under the go command's
// content-based build cache.
func (fs FactSet) Encode() ([]byte, error) {
	// json.Marshal sorts map keys, which is all the determinism needed.
	return json.Marshal(fs)
}

// DecodeFacts parses a serialized fact set; empty input yields an
// empty set (a dependency that exported no facts writes zero bytes or
// an empty object).
func DecodeFacts(data []byte) (FactSet, error) {
	fs := NewFactSet()
	if len(data) == 0 {
		return fs, nil
	}
	if err := json.Unmarshal(data, &fs); err != nil {
		return nil, err
	}
	return fs, nil
}
