// Package schema holds the attribute set A of a database D(A, O, V)
// (Definition 3.1), which is also the vertex set of the association
// hypergraph mined from it. A Names is validated and indexed once and
// is immutable afterwards, so a table, the hypergraph over it and every
// table appended from them share one.
package schema

import (
	"errors"
	"fmt"
)

// Names is an immutable, validated list of attribute names and their
// index: nonempty, with no empty and no duplicate name.
type Names struct {
	names []string
	index map[string]int
}

// New validates names and returns them as a schema. The slice is
// copied.
func New(names []string) (*Names, error) {
	if len(names) == 0 {
		return nil, errors.New("no attributes")
	}
	index := make(map[string]int, len(names))
	for j, a := range names {
		if a == "" {
			return nil, fmt.Errorf("empty attribute name at column %d", j)
		}
		if _, dup := index[a]; dup {
			return nil, fmt.Errorf("duplicate attribute %q", a)
		}
		index[a] = j
	}
	return &Names{names: append([]string(nil), names...), index: index}, nil
}

// Len returns the number of names.
func (s *Names) Len() int { return len(s.names) }

// Name returns name j.
func (s *Names) Name(j int) string { return s.names[j] }

// Index returns the position of name, or -1.
func (s *Names) Index(name string) int {
	if j, ok := s.index[name]; ok {
		return j
	}
	return -1
}

// Names returns a copy of the names in order.
func (s *Names) Names() []string { return append([]string(nil), s.names...) }

// Match returns nil if got lists the same names as s in the same
// order, and otherwise an error naming the first column where they
// differ: a CSV header of appended rows must match its model's
// attributes column for column.
func (s *Names) Match(got []string) error {
	for j := 0; j < max(len(s.names), len(got)); j++ {
		switch {
		case j == len(got):
			return fmt.Errorf("column %d %q is missing", j, s.names[j])
		case j == len(s.names):
			return fmt.Errorf("column %d %q is extra", j, got[j])
		case got[j] != s.names[j]:
			return fmt.Errorf("column %d is %q, want %q", j, got[j], s.names[j])
		}
	}
	return nil
}
