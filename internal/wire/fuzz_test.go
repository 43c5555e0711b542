package wire

import (
	"bufio"
	"bytes"
	"io"
	"testing"
)

// fuzzStream builds a pristine multi-frame stream of request payloads —
// the wire twin of the WAL fuzzer's pristine segment.
func fuzzStream() (frames [][]byte, stream []byte) {
	reqs := []Request{
		{Type: MsgHello, ID: 0, Version: Version},
		{Type: MsgPlace, ID: 1, Count: 1},
		{Type: MsgPlace, ID: 2, Count: 65536},
		{Type: MsgPlaceKeyed, ID: 3, Key: "user:42"},
		{Type: MsgRemove, ID: 4, Bin: 12345},
		{Type: MsgRemoveKeyed, ID: 5, Bin: 7, Key: "user:42"},
		{Type: MsgStats, ID: 6},
		{Type: MsgPing, ID: 1 << 40},
	}
	for _, r := range reqs {
		p := AppendRequest(nil, r)
		frames = append(frames, p)
		stream = AppendFrame(stream, p)
	}
	return frames, stream
}

// FuzzWireFrameRoundTrip mirrors FuzzWALTornTail: mutate a pristine
// frame stream by truncation and a single byte flip, then assert the
// reader never panics, never invents frames, and that every frame it
// does return is prefix-exact — byte-identical to the pristine frame at
// that index — with the payload still round-tripping through the
// request codec. An untouched stream must decode completely.
func FuzzWireFrameRoundTrip(f *testing.F) {
	_, pristine := fuzzStream()
	f.Add(uint16(0), uint16(0), byte(0))                   // untouched
	f.Add(uint16(1), uint16(0), byte(0))                   // torn tail
	f.Add(uint16(0), uint16(2), byte(0xff))                // length-prefix flip
	f.Add(uint16(0), uint16(5), byte(0x01))                // CRC flip
	f.Add(uint16(0), uint16(9), byte(0x80))                // payload flip
	f.Add(uint16(len(pristine)/2), uint16(12), byte(0x55)) // cut + flip

	f.Fuzz(func(t *testing.T, cut uint16, flipAt uint16, flipWith byte) {
		frames, pristine := fuzzStream()
		mutated := append([]byte(nil), pristine...)
		if int(cut) < len(mutated) {
			mutated = mutated[:len(mutated)-int(cut)]
		}
		if int(flipAt) < len(mutated) {
			mutated[flipAt] ^= flipWith
		}
		intact := bytes.Equal(mutated, pristine)

		r := bufio.NewReader(bytes.NewReader(mutated))
		var decoded [][]byte
		var readErr error
		for {
			payload, err := ReadFrame(r)
			if err != nil {
				readErr = err
				break
			}
			decoded = append(decoded, payload)
		}
		// The server decodes every frame into one reused buffer; that
		// path must yield the same frames and end in the same error.
		r = bufio.NewReader(bytes.NewReader(mutated))
		var buf []byte
		for i := 0; ; i++ {
			payload, err := readFrame(r, buf)
			if err != nil {
				if i != len(decoded) || err != readErr {
					t.Fatalf("reused buffer: frame %d ended in %v; ReadFrame decoded %d frames and ended in %v",
						i, err, len(decoded), readErr)
				}
				break
			}
			if i >= len(decoded) || !bytes.Equal(payload, decoded[i]) {
				t.Fatalf("reused buffer: frame %d = %x differs from ReadFrame's", i, payload)
			}
			buf = payload
		}

		if len(decoded) > len(frames) {
			t.Fatalf("decoded %d frames, pristine stream has only %d", len(decoded), len(frames))
		}
		for i, payload := range decoded {
			if !bytes.Equal(payload, frames[i]) {
				t.Fatalf("frame %d = %x, want pristine %x", i, payload, frames[i])
			}
			// The surviving payload must still speak the request codec,
			// and re-encoding must reproduce it byte-for-byte.
			req, err := ParseRequest(payload)
			if err != nil {
				t.Fatalf("frame %d survived CRC but failed parse: %v", i, err)
			}
			if re := AppendRequest(nil, req); !bytes.Equal(re, payload) {
				t.Fatalf("frame %d re-encode = %x, want %x", i, re, payload)
			}
		}
		if intact && (len(decoded) != len(frames) || readErr != io.EOF) {
			t.Fatalf("pristine stream decoded %d of %d frames, then %v", len(decoded), len(frames), readErr)
		}
	})
}

// FuzzWireReplyParse feeds arbitrary bytes to the reply-side parsers —
// they must reject garbage with an error, never panic or over-read.
func FuzzWireReplyParse(f *testing.F) {
	f.Add(AppendReply(nil, 1, CodeOK, AppendPlaceBody(nil, []int{3, 1, 4}, 9)))
	f.Add(AppendReply(nil, 2, CodeEmptyBin, []byte("bin 3 is empty")))
	f.Add(AppendHelloBody(nil, Hello{Version: 1, Protocol: "greedy[2]", N: 100, Shards: 8}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if rep, err := ParseReply(data); err == nil {
			ParsePlaceBody(rep.Body)
			ParseHelloBody(rep.Body)
		}
		ParseRequest(data)
	})
}
