package wire_test

import (
	"bytes"
	"testing"
)

// TestDecodePayloadOutlivesItsFrame: a transport decodes every frame out
// of a pooled buffer that the next frame overwrites, so DecodePayload
// must copy every byte string it reads. For every registered type,
// overwriting the frame after decoding leaves the payload's encoding as
// it was.
func TestDecodePayloadOutlivesItsFrame(t *testing.T) {
	frames, err := captureCorpus()
	if err != nil {
		t.Fatal(err)
	}
	reg, _ := corpusPayloads(t)
	for typ, frame := range frames {
		buf := bytes.Clone(frame)
		p, err := reg.DecodePayload(buf)
		if err != nil {
			t.Fatalf("decode %q: %v", typ, err)
		}
		for i := range buf {
			buf[i] = 0xA5
		}
		got, err := reg.EncodePayload(p)
		if err != nil {
			t.Fatalf("re-encode %q: %v", typ, err)
		}
		if !bytes.Equal(got, frame) {
			t.Errorf("%q: overwriting the frame changed the decoded payload", typ)
		}
	}
}
