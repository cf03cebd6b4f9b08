package schema

import (
	"strings"
	"testing"
)

func TestNewValidates(t *testing.T) {
	for _, c := range []struct {
		names []string
		want  string
	}{
		{nil, "no attributes"},
		{[]string{"A", ""}, "empty attribute name at column 1"},
		{[]string{"A", "B", "A"}, `duplicate attribute "A"`},
	} {
		if _, err := New(c.names); err == nil || err.Error() != c.want {
			t.Errorf("New(%q): %v, want %q", c.names, err, c.want)
		}
	}
	in := []string{"A", "B", "C"}
	s, err := New(in)
	if err != nil {
		t.Fatal(err)
	}
	in[0] = "Z"
	if s.Len() != 3 || s.Name(0) != "A" || s.Index("C") != 2 || s.Index("Z") != -1 {
		t.Errorf("schema of A,B,C reads Len %d, Name(0) %q, Index(C) %d, Index(Z) %d",
			s.Len(), s.Name(0), s.Index("C"), s.Index("Z"))
	}
	out := s.Names()
	out[1] = "Z"
	if s.Name(1) != "B" {
		t.Error("Names returned the schema's own slice")
	}
}

func TestMatchNamesFirstDifference(t *testing.T) {
	want, _ := New([]string{"A", "B", "C"})
	for _, c := range []struct {
		got  []string
		want string
	}{
		{[]string{"A", "B", "C"}, ""},
		{[]string{"A", "X", "Y"}, `column 1 is "X", want "B"`},
		{[]string{"A", "B"}, `column 2 "C" is missing`},
		{[]string{"A", "B", "C", "D"}, `column 3 "D" is extra`},
	} {
		err := want.Match(c.got)
		if msg := errString(err); msg != c.want {
			t.Errorf("Match(%s): %q, want %q", strings.Join(c.got, ","), msg, c.want)
		}
	}
	if err := want.Match(want.Names()); err != nil {
		t.Errorf("a schema does not match itself: %v", err)
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
