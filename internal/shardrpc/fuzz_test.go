package shardrpc

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// FuzzReadFrame feeds arbitrary bytes to readFrame. It must never panic,
// and a frame it accepts must re-encode to bytes that read back as the
// same frame.
func FuzzReadFrame(f *testing.F) {
	for i, c := range codecSeeds() {
		var buf bytes.Buffer
		if err := writeFrame(&buf, c.mt, uint64(i), c.base); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, fr.msgType, fr.reqID, fr.payload); err != nil {
			t.Fatal(err)
		}
		again, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if again.msgType != fr.msgType || again.reqID != fr.reqID || !bytes.Equal(again.payload, fr.payload) {
			t.Fatalf("frame changed on re-encode: %+v -> %+v", fr, again)
		}
	})
}

// FuzzDecodePayload feeds arbitrary bytes to every payload decoder,
// including the telemetry and summary tails. None may panic, and every
// successful decode must re-encode to a payload that decodes the same.
func FuzzDecodePayload(f *testing.F) {
	tel := &Telemetry{TraceID: "abc", ParentSpan: "query", Sampled: true}
	summary := []byte(`{"span":{"name":"remote:expand"},"ledger":{"remote_calls":1}}`)
	for _, c := range codecSeeds() {
		f.Add(c.base)
		switch c.name {
		case "expand", "verify":
			f.Add(appendTelemetry(append([]byte(nil), c.base...), tel))
		case "expandOK", "verifyOK":
			f.Add(appendSummary(append([]byte(nil), c.base...), summary))
		}
	}
	f.Add(appendTelemetry(nil, tel))
	f.Add(appendSummary(nil, summary))
	f.Fuzz(func(t *testing.T, p []byte) {
		if v, err := decodeHello(p); err == nil {
			if again, err := decodeHello(encodeHello(v)); err != nil || again != v {
				t.Fatalf("hello %d re-decodes as %d (%v)", v, again, err)
			}
		}
		if info, err := decodeHelloOK(p); err == nil {
			if again, err := decodeHelloOK(encodeHelloOK(info)); err != nil || again != info {
				t.Fatalf("helloOK %+v re-decodes as %+v (%v)", info, again, err)
			}
		}
		if digest, req, tel, err := decodeExpand(p); err == nil {
			d2, r2, t2, err := decodeExpand(appendTelemetry(encodeExpand(digest, req), tel))
			if err != nil || d2 != digest || !reflect.DeepEqual(r2, req) || !reflect.DeepEqual(t2, tel) {
				t.Fatalf("expand (%x, %+v, %+v) re-decodes as (%x, %+v, %+v) (%v)", digest, req, tel, d2, r2, t2, err)
			}
		}
		if resp, sum, err := decodeExpandOK(p); err == nil {
			r2, s2, err := decodeExpandOK(appendSummary(encodeExpandOK(resp), sum))
			if err != nil || !reflect.DeepEqual(r2, resp) || !bytes.Equal(s2, sum) {
				t.Fatalf("expandOK %+v re-decodes as %+v (%v)", resp, r2, err)
			}
		}
		if digest, req, tel, err := decodeVerify(p); err == nil {
			d2, r2, t2, err := decodeVerify(appendTelemetry(encodeVerify(digest, req), tel))
			if err != nil || d2 != digest || !reflect.DeepEqual(r2, req) || !reflect.DeepEqual(t2, tel) {
				t.Fatalf("verify (%x, %+v, %+v) re-decodes as (%x, %+v, %+v) (%v)", digest, req, tel, d2, r2, t2, err)
			}
		}
		if resp, sum, err := decodeVerifyOK(p); err == nil {
			r2, s2, err := decodeVerifyOK(appendSummary(encodeVerifyOK(resp), sum))
			if err != nil || !reflect.DeepEqual(r2, resp) || !bytes.Equal(s2, sum) {
				t.Fatalf("verifyOK %+v re-decodes as %+v (%v)", resp, r2, err)
			}
		}
		if tel := decodeTelemetryTail(&dec{b: p}); tel != nil {
			if again := decodeTelemetryTail(&dec{b: appendTelemetry(nil, tel)}); !reflect.DeepEqual(again, tel) {
				t.Fatalf("telemetry tail %+v re-decodes as %+v", tel, again)
			}
		}
		if sum := decodeSummaryTail(&dec{b: p}); sum != nil {
			if again := decodeSummaryTail(&dec{b: appendSummary(nil, sum)}); !bytes.Equal(again, sum) {
				t.Fatalf("summary tail %q re-decodes as %q", sum, again)
			}
		}
		var re *RemoteError
		if errors.As(decodeErr(p), &re) {
			var again *RemoteError
			if !errors.As(decodeErr(encodeErr(re.Code, re.Msg)), &again) || *again != *re {
				t.Fatalf("err %+v re-decodes as %+v", re, again)
			}
		}
		if info, err := decodeStatsOK(p); err == nil {
			if again, err := decodeStatsOK(encodeStatsOK(info)); err != nil || again != info {
				t.Fatalf("statsOK %+v re-decodes as %+v (%v)", info, again, err)
			}
		}
	})
}
