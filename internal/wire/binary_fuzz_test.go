package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"
)

// fuzzSeedFrames returns one valid frame of every type, the corpus the
// fuzzer mutates from.
func fuzzSeedFrames() [][]byte {
	info := SoftwareInfo{ID: "abcd1234", FileName: "tool.exe", FileSize: 4096, Vendor: "v", Version: "1"}
	return [][]byte{
		EncodeBinaryLookup(&LookupRequest{Software: info, Feeds: []string{"lab"}}),
		EncodeBinaryLookupBatch([]SoftwareInfo{info, info}, []string{"lab", "gov"}),
		EncodeBinaryReport(sampleReport()),
		EncodeBinaryVote(&VoteRequest{Session: "s", Software: info, Score: 3, Behaviors: "adware", Comment: "c"}),
		EncodeBinaryVoteAck(&VoteResponse{CommentID: 12}),
		EncodeBinaryError(&ErrorResponse{Code: CodeOverloaded, Epoch: 2, Message: "busy"}),
	}
}

// FuzzBinaryFrame feeds arbitrary bytes through every frame entry point
// — the stream reader, the body splitter, and all typed decoders. The
// invariants are the WAL fuzzer's: never panic, never allocate from a
// forged length, and anything a decoder accepts must re-encode to a
// frame that decodes to the same value (the codec is canonical). The
// lookup frames' in-place readers must also agree with the string
// decoders they replaced (checkAgainstReference).
func FuzzBinaryFrame(f *testing.F) {
	for _, frame := range fuzzSeedFrames() {
		f.Add(frame)
		// Deterministic mutants seed the interesting corners directly:
		// every short truncation class, a CRC flip, a forged giant
		// length, and trailing garbage.
		f.Add(frame[:len(frame)/2])
		f.Add(frame[:binFrameHeaderSize-1])
		flipped := append([]byte(nil), frame...)
		flipped[4] ^= 0x80
		f.Add(flipped)
		forged := append([]byte(nil), frame...)
		binary.BigEndian.PutUint32(forged[0:4], MaxBinaryFrame+1)
		f.Add(forged)
		f.Add(append(append([]byte(nil), frame...), 0xFF, 0x00, 0xFF))
		// The payload alone, cut at every length: every field's error path
		// in the typed decoders, without waiting for the mutator.
		payload, _, _ := SplitBinaryFrame(frame)
		for n := 1; n <= len(payload); n++ {
			f.Add(payload[:n])
		}
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Stream reader: must terminate (each frame consumes ≥ 8 bytes)
		// and surface io.EOF only at a clean boundary.
		r := bufio.NewReader(bytes.NewReader(data))
		for {
			payload, err := ReadBinaryFrame(r)
			if err != nil {
				if err != io.EOF && !errors.Is(err, ErrBinaryFrame) {
					t.Fatalf("unexpected error class: %v", err)
				}
				break
			}
			fuzzDecodePayload(t, payload)
		}

		// Body splitter on the raw bytes.
		if payload, rest, err := SplitBinaryFrame(data); err == nil {
			if len(payload)+len(rest)+binFrameHeaderSize != len(data) {
				t.Fatalf("split lost bytes: %d + %d + 8 != %d", len(payload), len(rest), len(data))
			}
			fuzzDecodePayload(t, payload)
		}

		// Typed decoders on the unframed bytes too: a server never does
		// this (CRC first), but the decoders must still be total.
		fuzzDecodePayload(t, data)
	})
}

// The string decoders of the two lookup frames as they were before
// LookupView read them in place: every field became a string as it was
// read. They are the reference FuzzBinaryFrame holds the in-place readers
// and their copy-outs to.

func refStr(r *binReader) string {
	if r.err != nil {
		return ""
	}
	n := r.u64()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.buf)) {
		r.fail("string length past frame end")
		return ""
	}
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}

func refReadSoftwareInfo(r *binReader) SoftwareInfo {
	return SoftwareInfo{
		ID:       refStr(r),
		FileName: refStr(r),
		FileSize: r.i64(),
		Vendor:   refStr(r),
		Version:  refStr(r),
	}
}

func refDecodeBinaryLookup(payload []byte) (LookupRequest, error) {
	r := &binReader{buf: payload}
	r.expect(BinFrameLookup)
	var req LookupRequest
	req.Software = refReadSoftwareInfo(r)
	n := r.count(1)
	for i := 0; i < n; i++ {
		req.Feeds = append(req.Feeds, refStr(r))
	}
	return req, r.done()
}

func refDecodeBinaryLookupBatch(payload []byte) (infos []SoftwareInfo, feeds []string, err error) {
	r := &binReader{buf: payload}
	r.expect(BinFrameLookupBatch)
	nf := r.count(1)
	for i := 0; i < nf; i++ {
		feeds = append(feeds, refStr(r))
	}
	ni := r.count(5)
	if ni > MaxBatchLookups {
		return nil, nil, fmt.Errorf("%w: batch of %d exceeds %d", ErrBinaryFrame, ni, MaxBatchLookups)
	}
	infos = make([]SoftwareInfo, 0, ni)
	for i := 0; i < ni; i++ {
		infos = append(infos, refReadSoftwareInfo(r))
	}
	return infos, feeds, r.done()
}

// checkAgainstReference holds the lookup frames' in-place readers to the
// reference decoders: the same verdict with the same error text, and for
// an accepted payload the same values, copied out, with every view's
// capacity cut to its length.
func checkAgainstReference(t *testing.T, payload []byte) {
	verdict := func(what string, err, want error) {
		if (err == nil) != (want == nil) || (err != nil && err.Error() != want.Error()) {
			t.Fatalf("%s: in place %v, reference %v", what, err, want)
		}
	}
	req, err := DecodeBinaryLookup(payload)
	wantReq, wantErr := refDecodeBinaryLookup(payload)
	verdict("lookup", err, wantErr)
	if err == nil && !reflect.DeepEqual(req, wantReq) {
		t.Fatalf("lookup: in place %+v, reference %+v", req, wantReq)
	}
	infos, feeds, err := DecodeBinaryLookupBatch(payload)
	wantInfos, wantFeeds, wantErr := refDecodeBinaryLookupBatch(payload)
	verdict("batch", err, wantErr)
	if err == nil && (!reflect.DeepEqual(infos, wantInfos) || !reflect.DeepEqual(feeds, wantFeeds)) {
		t.Fatalf("batch: in place %+v %q, reference %+v %q", infos, feeds, wantInfos, wantFeeds)
	}
	var v LookupView
	for _, read := range []func([]byte) error{v.ReadLookup, v.ReadBatch} {
		if read(payload) != nil {
			continue
		}
		views := v.Feeds
		for _, sw := range v.Software {
			views = append(views, sw.ID, sw.FileName, sw.Vendor, sw.Version)
		}
		for _, b := range views {
			if cap(b) != len(b) {
				t.Fatalf("a view of %d bytes has capacity %d", len(b), cap(b))
			}
		}
	}
}

// fuzzDecodePayload runs every typed decoder over one payload and
// checks the re-encode invariant on accepted values.
func fuzzDecodePayload(t *testing.T, payload []byte) {
	checkAgainstReference(t, payload)
	if req, err := DecodeBinaryLookup(payload); err == nil {
		again, _, err := SplitBinaryFrame(EncodeBinaryLookup(&req))
		if err != nil {
			t.Fatalf("re-encode lookup: %v", err)
		}
		if _, err := DecodeBinaryLookup(again); err != nil {
			t.Fatalf("re-decode lookup: %v", err)
		}
	}
	if infos, feeds, err := DecodeBinaryLookupBatch(payload); err == nil {
		again, _, err := SplitBinaryFrame(EncodeBinaryLookupBatch(infos, feeds))
		if err != nil {
			t.Fatalf("re-encode batch: %v", err)
		}
		if _, _, err := DecodeBinaryLookupBatch(again); err != nil {
			t.Fatalf("re-decode batch: %v", err)
		}
	}
	if resp, err := DecodeBinaryReport(payload); err == nil {
		again, _, err := SplitBinaryFrame(EncodeBinaryReport(&resp))
		if err != nil {
			t.Fatalf("re-encode report: %v", err)
		}
		if _, err := DecodeBinaryReport(again); err != nil {
			t.Fatalf("re-decode report: %v", err)
		}
	}
	if vote, err := DecodeBinaryVote(payload); err == nil {
		if _, _, err := SplitBinaryFrame(EncodeBinaryVote(&vote)); err != nil {
			t.Fatalf("re-encode vote: %v", err)
		}
	}
	if ack, err := DecodeBinaryVoteAck(payload); err == nil {
		if _, _, err := SplitBinaryFrame(EncodeBinaryVoteAck(&ack)); err != nil {
			t.Fatalf("re-encode ack: %v", err)
		}
	}
	if e, err := DecodeBinaryError(payload); err == nil {
		if _, _, err := SplitBinaryFrame(EncodeBinaryError(e)); err != nil {
			t.Fatalf("re-encode error: %v", err)
		}
	}
}
