package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"time"
)

// conn is one HTTP/1.1 keep-alive connection to the server under test.
type conn struct {
	base string
	hc   *http.Client
	tr   *http.Transport
	buf  bytes.Buffer
	rtt  time.Duration // the last exchange, from sending to the body's end
}

func newConn(base string) *conn {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &conn{base: base, tr: tr, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *conn) close() { c.tr.CloseIdleConnections() }

// queryReply is the part of a /query response the benchmark reads.
type queryReply struct {
	Layer    int             `json:"layer"`
	Cached   bool            `json:"cached"`
	Degraded bool            `json:"degraded"`
	Matches  json.RawMessage `json:"matches"`
	Trace    *span           `json:"trace"`
}

// digest is the answer fingerprint the correctness check compares: the
// server's rendering of the match list, byte for byte.
func (r *queryReply) digest() uint64 {
	h := fnv.New64a()
	h.Write(r.Matches)
	return h.Sum64()
}

// httpError is a non-2xx answer.
type httpError struct {
	code int
	body string
}

func (e *httpError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// do sends one request and leaves the body in c.buf.
func (c *conn) do(method, path string, body []byte) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	t := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	c.rtt = time.Since(t)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		b := c.buf.String()
		if len(b) > 200 {
			b = b[:200]
		}
		return &httpError{code: resp.StatusCode, body: b}
	}
	return nil
}

// query sends GET path and decodes the /query response.
func (c *conn) query(path string) (*queryReply, error) {
	if err := c.do(http.MethodGet, path, nil); err != nil {
		return nil, err
	}
	rep := &queryReply{}
	if err := json.Unmarshal(c.buf.Bytes(), rep); err != nil {
		return nil, fmt.Errorf("decoding /query response: %w", err)
	}
	return rep, nil
}

// writeReply is the part of a POST /admin/edges response the benchmark
// reads.
type writeReply struct {
	Path         string  `json:"path"`
	AffectedFrac float64 `json:"affected_frac"`
	Elapsed      string  `json:"elapsed"`
}

func (c *conn) mutate(body []byte) (*writeReply, error) {
	if err := c.do(http.MethodPost, "/admin/edges", body); err != nil {
		return nil, err
	}
	rep := &writeReply{}
	if err := json.Unmarshal(c.buf.Bytes(), rep); err != nil {
		return nil, fmt.Errorf("decoding /admin/edges response: %w", err)
	}
	return rep, nil
}

// get fetches a plain GET endpoint (/metrics) into a fresh byte slice.
func (c *conn) get(path string) ([]byte, error) {
	if err := c.do(http.MethodGet, path, nil); err != nil {
		return nil, err
	}
	return bytes.Clone(c.buf.Bytes()), nil
}
