package shardrpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"

	"bigindex/internal/graph"
	"bigindex/internal/search"
	"bigindex/internal/shard"
)

func TestFrameRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 4096)} {
		var buf bytes.Buffer
		if err := writeFrame(&buf, msgExpand, 42, payload); err != nil {
			t.Fatal(err)
		}
		fr, err := readFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if fr.msgType != msgExpand || fr.reqID != 42 || !bytes.Equal(fr.payload, payload) {
			t.Fatalf("round trip mangled frame: %+v", fr)
		}
	}
}

func TestReadFrameRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, msgHelloOK, 7, []byte("payload-bytes")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip one bit in every body byte position in turn: the CRC must
	// catch each one.
	for i := 4; i < len(raw)-4; i++ {
		cp := append([]byte(nil), raw...)
		cp[i] ^= 0x10
		if _, err := readFrame(bytes.NewReader(cp)); err == nil {
			t.Fatalf("corruption at byte %d went undetected", i)
		}
	}
}

func TestReadFrameRejectsHostileHeaders(t *testing.T) {
	mk := func(bodyLen uint32, body []byte) []byte {
		out := binary.LittleEndian.AppendUint32(nil, bodyLen)
		out = append(out, body...)
		return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
	}
	cases := map[string][]byte{
		"zero length":      mk(0, nil),
		"sub-header":       mk(8, bytes.Repeat([]byte{1}, 8)),
		"oversized length": mk(maxFrame+1, nil),
		"zero msg type":    mk(9, append([]byte{0}, make([]byte, 8)...)),
		"unknown msg type": mk(9, append([]byte{msgTypeCount}, make([]byte, 8)...)),
	}
	for name, raw := range cases {
		if _, err := readFrame(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Truncated stream: header promises more than arrives.
	raw := mk(100, nil)
	if _, err := readFrame(bytes.NewReader(raw)); err == nil {
		t.Error("truncated stream accepted")
	}
}

func TestHelloCodec(t *testing.T) {
	v, err := decodeHello(encodeHello(protoVersion))
	if err != nil || v != protoVersion {
		t.Fatalf("hello version %d (err %v), want %d", v, err, protoVersion)
	}
	if _, err := decodeHello(nil); err == nil {
		t.Fatal("hello without a version accepted")
	}
	want := HelloInfo{Digest: 0xDEADBEEFCAFE, Blocks: 17, BlockSize: 200, Vertices: 123456, Version: protoVersion}
	got, err := decodeHelloOK(encodeHelloOK(want))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("got %+v want %+v", got, want)
	}
}

func TestExpandCodec(t *testing.T) {
	for _, req := range []*shard.ExpandRequest{
		{Kw: 2, Block: 5, Level: 3, Frontier: []graph.V{1, 9, 200000}},
		{Kw: 0, Block: 0, Level: 0, Frontier: nil},
	} {
		digest, got, tel, err := decodeExpand(encodeExpand(0x1234, req))
		if err != nil {
			t.Fatal(err)
		}
		if digest != 0x1234 || !reflect.DeepEqual(got, req) || tel != nil {
			t.Fatalf("got (%x, %+v, %+v) want (1234, %+v, nil)", digest, got, tel, req)
		}
	}
}

func TestExpandOKCodec(t *testing.T) {
	for _, resp := range []*shard.ExpandResponse{
		{Kw: 1, Block: 2, Local: []graph.V{3, 4}, Outbox: []shard.PortalMsg{{V: 9, Block: 1}, {V: 10, Block: 0}}, Expanded: 7},
		{Kw: 0, Block: 0, Local: nil, Outbox: nil, Expanded: 0},
	} {
		got, summary, err := decodeExpandOK(encodeExpandOK(resp))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, resp) || summary != nil {
			t.Fatalf("got %+v (summary %q) want %+v", got, summary, resp)
		}
	}
}

func TestVerifyCodec(t *testing.T) {
	req := &shard.VerifyRequest{Labels: []graph.Label{1, 2, 3}, DMax: 4, Roots: []graph.V{7, 8}}
	digest, got, tel, err := decodeVerify(encodeVerify(99, req))
	if err != nil {
		t.Fatal(err)
	}
	if digest != 99 || !reflect.DeepEqual(got, req) || tel != nil {
		t.Fatalf("got (%d, %+v, %+v)", digest, got, tel)
	}
}

func TestVerifyOKCodecRecomputesScore(t *testing.T) {
	resp := &shard.VerifyResponse{
		Verified: 3,
		Matches: []search.Match{
			{Root: 5, Dists: []int{0, 2, 1}, Score: 3, Nodes: []graph.V{5, 6, 7}},
			{Root: 9, Dists: []int{1}, Score: 1, Nodes: []graph.V{9}},
		},
	}
	got, summary, err := decodeVerifyOK(encodeVerifyOK(resp))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, resp) || summary != nil {
		t.Fatalf("got %+v (summary %q) want %+v", got, summary, resp)
	}
}

func TestErrCodec(t *testing.T) {
	err := decodeErr(encodeErr(ErrCodeStale, "digest mismatch"))
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != ErrCodeStale || re.Msg != "digest mismatch" {
		t.Fatalf("got %v", err)
	}
}

// TestDecoderRejectsHostileCounts pins the allocation guard: a length
// prefix claiming far more elements than the payload holds must fail
// cleanly instead of allocating gigabytes.
func TestDecoderRejectsHostileCounts(t *testing.T) {
	var e enc
	e.u32(0x7FFFFFFF) // Local count way beyond the bytes that follow
	e.u32(1)
	hostile := append(encodeExpandOK(&shard.ExpandResponse{})[:8], e.b...)
	if _, _, err := decodeExpandOK(hostile); err == nil {
		t.Fatal("hostile element count accepted")
	}
	// Truncated payloads across every codec.
	for _, c := range codecSeeds() {
		for cut := 0; cut < len(c.base); cut++ {
			if c.decode(c.base[:cut]) == nil {
				t.Fatalf("%s: truncation at %d accepted", c.name, cut)
			}
		}
	}
}

// codecSeed is one real encoding per message type: base is the payload
// without any tail, decode runs that type's decoder and returns its error.
type codecSeed struct {
	name   string
	mt     byte
	base   []byte
	decode func([]byte) error
}

func codecSeeds() []codecSeed {
	return []codecSeed{
		{"hello", msgHello, encodeHello(protoVersion), func(p []byte) error {
			_, err := decodeHello(p)
			return err
		}},
		{"helloOK", msgHelloOK, encodeHelloOK(HelloInfo{Digest: 7, Blocks: 3, BlockSize: 64, Vertices: 90, Version: protoVersion}), func(p []byte) error {
			_, err := decodeHelloOK(p)
			return err
		}},
		{"expand", msgExpand, encodeExpand(0x1234, &shard.ExpandRequest{Kw: 1, Block: 2, Level: 3, Frontier: []graph.V{4, 5, 6}}), func(p []byte) error {
			_, _, _, err := decodeExpand(p)
			return err
		}},
		{"expandOK", msgExpandOK, encodeExpandOK(&shard.ExpandResponse{Kw: 1, Block: 2, Local: []graph.V{1, 2, 3},
			Outbox: []shard.PortalMsg{{V: 9, Block: 1}}, Expanded: 3}), func(p []byte) error {
			_, _, err := decodeExpandOK(p)
			return err
		}},
		{"verify", msgVerify, encodeVerify(99, &shard.VerifyRequest{Labels: []graph.Label{1, 2}, DMax: 4, Roots: []graph.V{7, 8}}), func(p []byte) error {
			_, _, _, err := decodeVerify(p)
			return err
		}},
		{"verifyOK", msgVerifyOK, encodeVerifyOK(&shard.VerifyResponse{Verified: 2, Matches: []search.Match{
			{Root: 5, Dists: []int{0, 2}, Score: 2, Nodes: []graph.V{5, 6}}}}), func(p []byte) error {
			_, _, err := decodeVerifyOK(p)
			return err
		}},
		{"err", msgErr, encodeErr(ErrCodeStale, "digest mismatch"), func(p []byte) error {
			var re *RemoteError
			if err := decodeErr(p); !errors.As(err, &re) {
				return err
			}
			return nil
		}},
		{"statsOK", msgStatsOK, encodeStatsOK(StatsInfo{Digest: "00ff", Blocks: 3, GOMAXPROCS: 2, Expands: 5}), func(p []byte) error {
			_, err := decodeStatsOK(p)
			return err
		}},
	}
}
