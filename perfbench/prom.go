package main

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// sample is one series of a Prometheus text exposition.
type sample struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape is a parsed /metrics exposition.
type scrape []sample

// parseProm reads the text exposition format: "name{k="v",...} value",
// skipping comments and any trailing exemplar ("# {...}").
func parseProm(r io.Reader) (scrape, error) {
	var out scrape
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		s := sample{labels: map[string]string{}}
		rest := line
		if i := strings.IndexAny(line, "{ "); i >= 0 && line[i] == '{' {
			s.name = line[:i]
			var ok bool
			rest, ok = parseLabels(line[i+1:], s.labels)
			if !ok {
				continue
			}
		} else if i >= 0 {
			s.name, rest = line[:i], line[i:]
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			continue
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			continue
		}
		s.value = v
		out = append(out, s)
	}
	return out, sc.Err()
}

// parseLabels consumes `k="v",...}` into m and returns what follows.
func parseLabels(s string, m map[string]string) (string, bool) {
	for {
		s = strings.TrimLeft(s, ", ")
		if strings.HasPrefix(s, "}") {
			return s[1:], true
		}
		eq := strings.Index(s, "=\"")
		if eq < 0 {
			return "", false
		}
		key := s[:eq]
		s = s[eq+2:]
		var val strings.Builder
		i := 0
		for ; i < len(s) && s[i] != '"'; i++ {
			if s[i] == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(s[i])
				}
				continue
			}
			val.WriteByte(s[i])
		}
		if i >= len(s) {
			return "", false
		}
		m[key] = val.String()
		s = s[i+1:]
	}
}

// sum adds every series of name whose labels include all of match
// (alternating key, value).
func (sc scrape) sum(name string, match ...string) float64 {
	var t float64
	for _, s := range sc {
		if s.name != name {
			continue
		}
		ok := true
		for i := 0; i+1 < len(match); i += 2 {
			if s.labels[match[i]] != match[i+1] {
				ok = false
				break
			}
		}
		if ok {
			t += s.value
		}
	}
	return t
}

// delta is after.sum − before.sum for one selector.
func delta(before, after scrape, name string, match ...string) float64 {
	return after.sum(name, match...) - before.sum(name, match...)
}
