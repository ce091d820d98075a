package main

import (
	"cmp"
	"slices"
	"strconv"
	"strings"
)

// span is one timed phase, in the shape the server renders under "trace"
// in a /query response: times in microseconds, start relative to the
// trace root. The benchmark times each HTTP call around it (conn.rtt);
// the wire's share is that round trip minus the server's root span.
type span struct {
	Name     string         `json:"name"`
	StartUS  int64          `json:"start_us"`
	DurUS    int64          `json:"dur_us"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []span         `json:"children,omitempty"`
}

// selfUS is the span's duration minus the part of its interval that its
// children cover. Children may overlap each other (the server's Cache
// span brackets the evaluation spans), so covered time is the length of
// the union of the child intervals, clipped to the parent.
func (s span) selfUS() int64 {
	type iv struct{ a, b int64 }
	lo, hi := s.StartUS, s.StartUS+s.DurUS
	var ivs []iv
	for _, c := range s.Children {
		a, b := max(c.StartUS, lo), min(c.StartUS+c.DurUS, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return cmp.Compare(x.a, y.a) })
	var covered, end int64
	end = lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return s.DurUS - covered
}

// walk visits s and every descendant, depth first.
func (s span) walk(f func(span)) {
	f(s)
	for _, c := range s.Children {
		c.walk(f)
	}
}

// attrInt reads a numeric attribute (JSON numbers decode as float64).
func (s span) attrInt(key string) (int, bool) {
	v, ok := s.Attrs[key].(float64)
	return int(v), ok
}

// specLayer parses "Spec/L<j>" into j.
func specLayer(name string) (int, bool) {
	rest, ok := strings.CutPrefix(name, "Spec/L")
	if !ok {
		return 0, false
	}
	j, err := strconv.Atoi(rest)
	return j, err == nil
}
