package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
)

func sampleReport() *LookupResponse {
	return &LookupResponse{
		Known:       true,
		ID:          "da39a3ee5e6b4b0d3255bfef95601890afd80709",
		Score:       7.25,
		Votes:       42,
		Behaviors:   "adware,tracking",
		Vendor:      "Example Corp",
		VendorScore: 6.5,
		VendorCount: 3,
		Comments: []CommentInfo{
			{ID: 9, User: "alice", Text: "fine tool", Positive: 4, Negative: 1, At: "2006-01-02T15:04:05Z", AuthorTrust: 1.8},
			{ID: 11, User: "bob", Text: "phones home", Positive: 7, Negative: 0, At: "2006-01-03T10:00:00Z", AuthorTrust: 0.4},
		},
		Advice: []AdviceInfo{
			{Feed: "lab", Score: 2, Behaviors: "spyware", Note: "exfiltrates contacts"},
		},
	}
}

// TestBinaryRoundTrips drives every message type through encode →
// frame split → decode and requires the result to match the original
// exactly.
func TestBinaryRoundTrips(t *testing.T) {
	lookup := LookupRequest{
		Software: SoftwareInfo{ID: "abcd", FileName: "tool.exe", FileSize: 123456, Vendor: "Example", Version: "1.2"},
		Feeds:    []string{"lab", "gov"},
	}
	payload, rest, err := SplitBinaryFrame(EncodeBinaryLookup(&lookup))
	if err != nil || len(rest) != 0 {
		t.Fatalf("split lookup: %v, %d rest", err, len(rest))
	}
	gotLookup, err := DecodeBinaryLookup(payload)
	if err != nil {
		t.Fatal(err)
	}
	lookup.XMLName = gotLookup.XMLName
	if !reflect.DeepEqual(gotLookup, lookup) {
		t.Fatalf("lookup round trip:\n got %+v\nwant %+v", gotLookup, lookup)
	}

	rep := sampleReport()
	payload, _, err = SplitBinaryFrame(EncodeBinaryReport(rep))
	if err != nil {
		t.Fatal(err)
	}
	gotRep, err := DecodeBinaryReport(payload)
	if err != nil {
		t.Fatal(err)
	}
	rep.XMLName = gotRep.XMLName
	if !reflect.DeepEqual(gotRep, *rep) {
		t.Fatalf("report round trip:\n got %+v\nwant %+v", gotRep, *rep)
	}

	infos := []SoftwareInfo{lookup.Software, {ID: "ffff", FileName: "b.exe", FileSize: 1}}
	payload, _, err = SplitBinaryFrame(EncodeBinaryLookupBatch(infos, []string{"lab"}))
	if err != nil {
		t.Fatal(err)
	}
	gotInfos, gotFeeds, err := DecodeBinaryLookupBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotInfos, infos) || !reflect.DeepEqual(gotFeeds, []string{"lab"}) {
		t.Fatalf("batch round trip: %+v / %v", gotInfos, gotFeeds)
	}

	vote := VoteRequest{Session: "s-1", Software: lookup.Software, Score: 8, Behaviors: "adware", Comment: "meh"}
	payload, _, err = SplitBinaryFrame(EncodeBinaryVote(&vote))
	if err != nil {
		t.Fatal(err)
	}
	var voteView VoteView
	if err := voteView.ReadVote(payload); err != nil {
		t.Fatal(err)
	}
	if gotVote := voteView.request(); !reflect.DeepEqual(gotVote, vote) {
		t.Fatalf("vote round trip: %+v", gotVote)
	}

	ack := VoteResponse{CommentID: 77}
	framed, kept := bytes.CutPrefix(AppendBinaryVoteAck([]byte("kept"), &ack), []byte("kept"))
	payload, rest, err = SplitBinaryFrame(framed)
	if !kept || err != nil || len(rest) != 0 {
		t.Fatalf("split ack: %v, %v, %d rest", kept, err, len(rest))
	}
	gotAck, err := DecodeBinaryVoteAck(payload)
	if err != nil {
		t.Fatal(err)
	}
	if gotAck.CommentID != 77 {
		t.Fatalf("ack round trip: %+v", gotAck)
	}

	werr := &ErrorResponse{Code: CodeRedirect, Primary: "http://p", Epoch: 4, Message: "use the primary"}
	payload, _, err = SplitBinaryFrame(EncodeBinaryError(werr))
	if err != nil {
		t.Fatal(err)
	}
	gotErr, err := DecodeBinaryError(payload)
	if err != nil {
		t.Fatal(err)
	}
	werr.XMLName = gotErr.XMLName
	if !reflect.DeepEqual(gotErr, werr) {
		t.Fatalf("error round trip: %+v", gotErr)
	}
}

// TestBinaryFrameStream reads several frames back through the
// bufio-based reader, the batch response path.
func TestBinaryFrameStream(t *testing.T) {
	var stream []byte
	stream = append(stream, EncodeBinaryReport(sampleReport())...)
	stream = append(stream, EncodeBinaryError(&ErrorResponse{Code: CodeNotFound, Message: "gone"})...)
	r := bufio.NewReader(bytes.NewReader(stream))

	p1, err := ReadBinaryFrameInto(r, nil, MaxBinaryFrame)
	if err != nil || BinaryFrameType(p1) != BinFrameReport {
		t.Fatalf("frame 1: %v type %d", err, BinaryFrameType(p1))
	}
	p2, err := ReadBinaryFrameInto(r, nil, MaxBinaryFrame)
	if err != nil || BinaryFrameType(p2) != BinFrameError {
		t.Fatalf("frame 2: %v type %d", err, BinaryFrameType(p2))
	}
	if _, err := ReadBinaryFrameInto(r, nil, MaxBinaryFrame); err != io.EOF {
		t.Fatalf("want clean EOF, got %v", err)
	}
}

// TestBinaryFrameRejects: a forged count, trailing garbage, a wrong frame
// type and an oversized batch inside frames whose CRC is right must all
// be rejected without panic. What is wrong with a frame itself (torn,
// oversized, a CRC flip, a forged length) is internal/frame's
// TestRejects.
func TestBinaryFrameRejects(t *testing.T) {
	frame := EncodeBinaryReport(sampleReport())

	// Forged comment count inside a valid frame: CRC is recomputed so
	// the frame passes, but decode must bound the count by the bytes
	// remaining rather than allocate.
	payload, _, err := SplitBinaryFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), payload...)
	// The comment count is hard to locate generically; instead forge a
	// batch frame whose declared entry count is absurd.
	forged := &binWriter{}
	forged.buf = append(forged.buf, BinFrameLookupBatch)
	forged.u64(0)       // no feeds
	forged.u64(1 << 40) // forged entry count
	if _, _, err := DecodeBinaryLookupBatch(forged.buf); err == nil {
		t.Fatal("forged batch count accepted")
	}
	// Trailing garbage after a valid message must be rejected by done().
	mut = append(mut, 0xFF)
	if _, err := DecodeBinaryReport(mut); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	// Wrong frame type.
	if err := new(VoteView).ReadVote(payload); err == nil {
		t.Fatal("report payload decoded as vote")
	}
	// Oversized batch.
	many := make([]SoftwareInfo, MaxBatchLookups+1)
	p2, _, err := SplitBinaryFrame(EncodeBinaryLookupBatch(many, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeBinaryLookupBatch(p2); !errors.Is(err, ErrBinaryFrame) {
		t.Fatalf("oversized batch: want ErrBinaryFrame, got %v", err)
	}
}

// TestBinaryLookupViewAllocPin: reading a 64-entry batch, or a single
// lookup, into a view that has read one before allocates nothing — the
// server reads every binary lookup this way, into its pooled scope — and
// every field is a view of the payload that an append cannot reach past.
func TestBinaryLookupViewAllocPin(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	infos := make([]SoftwareInfo, 64)
	for i := range infos {
		infos[i] = SoftwareInfo{ID: "da39a3ee5e6b4b0d3255bfef95601890afd80709", FileName: "tool.exe", FileSize: int64(i),
			Vendor: "Example Corp", Version: "1.2"}
	}
	feeds := []string{"lab", "gov"}
	batch, _, err := SplitBinaryFrame(EncodeBinaryLookupBatch(infos, feeds))
	if err != nil {
		t.Fatal(err)
	}
	single, _, err := SplitBinaryFrame(EncodeBinaryLookup(&LookupRequest{Software: infos[0], Feeds: feeds}))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		payload []byte
		read    func(*LookupView, []byte) error
		want    []SoftwareInfo
	}{
		{"batch of 64", batch, (*LookupView).ReadBatch, infos},
		{"single lookup", single, (*LookupView).ReadLookup, infos[:1]},
	} {
		var v LookupView
		if err := tc.read(&v, tc.payload); err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(100, func() {
			if err := tc.read(&v, tc.payload); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Errorf("%s: %.1f allocations reading into a used view, want 0", tc.name, got)
		}
		if len(v.Software) != len(tc.want) || len(v.Feeds) != len(feeds) {
			t.Fatalf("%s: read %d entries and %d feeds", tc.name, len(v.Software), len(v.Feeds))
		}
		for i := range v.Software {
			sw := &v.Software[i]
			if sw.Info() != tc.want[i] {
				t.Fatalf("%s: entry %d reads %+v", tc.name, i, sw.Info())
			}
			for _, b := range [][]byte{sw.ID, sw.FileName, sw.Vendor, sw.Version} {
				if cap(b) != len(b) {
					t.Fatalf("%s: entry %d: a view of %d bytes has capacity %d", tc.name, i, len(b), cap(b))
				}
			}
		}
	}
}
