package wire

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// referenceEncode is Encode as encoding/xml does it: what the
// hand-written encoders must reproduce byte for byte.
func referenceEncode(t testing.TB, v interface{}) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(xml.Header)
	enc := xml.NewEncoder(&buf)
	enc.Indent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatalf("reference encode %T: %v", v, err)
	}
	return buf.Bytes()
}

// sameValue compares two messages field for field; unlike
// reflect.DeepEqual it takes NaN for equal to NaN, and like it tells a
// nil list from an empty one.
func sameValue(a, b interface{}) bool {
	return fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b)
}

// Pieces the generated strings are made of. The hostile ones are what
// the encoder escapes or replaces; the lossy ones do not survive a round
// trip (encoding/xml maps them to U+FFFD).
var (
	plainPieces   = []string{"a", "Z", "0", "-", " ", "  ", "tool.exe", "é", "日本", "\U0010FFFF", "\uFFFD"}
	hostilePieces = []string{"<", ">", "&", `"`, "'", "\t", "\n", "\r", "\r\n", "]]>", "&amp;", "&#34;", "&bogus;",
		"</id>", "<!-- c -->", "<![CDATA[x]]>", "<?pi?>", `id="1"`}
	lossyPieces = []string{"\xff", "\xc0\xaf", "\xed\xa0\x80", "\xf4\x90\x80\x80", "\x00", "\x01", "\x1f", "\uFFFE", "\uFFFF"}
)

// docGen draws random messages. With lossy set, strings may hold what a
// round trip does not preserve: invalid UTF-8, characters outside XML's
// range, and empty feed names (omitted by omitempty).
type docGen struct {
	r     *rand.Rand
	lossy bool
}

func (g docGen) str() string {
	if g.r.Intn(5) == 0 {
		return ""
	}
	var b strings.Builder
	for n := 1 + g.r.Intn(6); n > 0; n-- {
		pieces := plainPieces
		switch k := g.r.Intn(4); {
		case k == 0:
			pieces = hostilePieces
		case k == 1 && g.lossy:
			pieces = lossyPieces
		}
		b.WriteString(pieces[g.r.Intn(len(pieces))])
	}
	return b.String()
}

func (g docGen) float() float64 {
	special := []float64{0, math.Copysign(0, -1), 1, -1, 6.142857142857143, 1e21, 1e-7, 123456789,
		math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64}
	if k := g.r.Intn(2 * len(special)); k < len(special) {
		return special[k]
	}
	return g.r.NormFloat64() * math.Pow(10, float64(g.r.Intn(40)-20))
}

func (g docGen) int() int {
	special := []int{0, 1, -1, 10, math.MaxInt64, math.MinInt64}
	if k := g.r.Intn(2 * len(special)); k < len(special) {
		return special[k]
	}
	return int(g.r.Int63()) >> g.r.Intn(64)
}

// count draws a list length: none, one or ten.
func (g docGen) count() int { return []int{0, 1, 10}[g.r.Intn(3)] }

func (g docGen) software() SoftwareInfo {
	return SoftwareInfo{ID: g.str(), FileName: g.str(), FileSize: int64(g.int()), Vendor: g.str(), Version: g.str()}
}

func (g docGen) lookupRequest() LookupRequest {
	m := LookupRequest{Software: g.software()}
	for n := g.count(); n > 0; n-- {
		if f := g.str(); f != "" || g.lossy {
			m.Feeds = append(m.Feeds, f)
		}
	}
	return m
}

func (g docGen) voteRequest() VoteRequest {
	return VoteRequest{Session: g.str(), Software: g.software(), Score: g.int(), Behaviors: g.str(), Comment: g.str()}
}

func (g docGen) lookupResponse() LookupResponse {
	m := LookupResponse{Known: g.r.Intn(2) == 0, ID: g.str(), Score: g.float(), Votes: g.int(), Behaviors: g.str(),
		Vendor: g.str(), VendorScore: g.float(), VendorCount: g.int()}
	for n := g.count(); n > 0; n-- {
		m.Comments = append(m.Comments, CommentInfo{ID: uint64(g.int()), User: g.str(), Text: g.str(),
			Positive: g.int(), Negative: g.int(), At: g.str(), AuthorTrust: g.float()})
	}
	for n := g.count(); n > 0; n-- {
		m.Advice = append(m.Advice, AdviceInfo{Feed: g.str(), Score: g.float(), Behaviors: g.str(), Note: g.str()})
	}
	return m
}

func (g docGen) voteResponse() VoteResponse { return VoteResponse{CommentID: uint64(g.int())} }

// checkCodec checks one message against encoding/xml: Encode writes the
// same bytes, given by value or by pointer; the scanner accepts them
// (Decode did not fall back) and reads what encoding/xml reads, into an
// empty message and into a used one; and, unless the message was drawn
// lossy, that is the message itself.
func checkCodec[T any, P interface {
	*T
	Document
}](t *testing.T, msg T, root string, used T, lossy bool) bool {
	t.Helper()
	want := referenceEncode(t, msg)
	if got := AppendXML(nil, P(&msg)); !bytes.Equal(got, want) {
		t.Errorf("AppendXML(%#v)\n got %q\nwant %q", msg, got, want)
		return false
	}
	for _, v := range []interface{}{msg, &msg} {
		var buf bytes.Buffer
		buf.WriteString("kept")
		if err := Encode(&buf, v); err != nil || buf.String() != "kept"+string(want) {
			t.Errorf("Encode(%T) = %v\n got %q\nwant %q", v, err, buf.String(), "kept"+string(want))
			return false
		}
	}
	for _, target := range []T{*new(T), used} {
		fast, ref := target, target
		if !P(&fast).scanXML(want) {
			t.Errorf("scanner declined its own encoder's output: %q", want)
			return false
		}
		if err := decodeReflect(bytes.NewReader(want), &ref); err != nil {
			t.Errorf("reference decode of %q: %v", want, err)
			return false
		}
		if !sameValue(fast, ref) {
			t.Errorf("decode of %q\n got %#v\nwant %#v", want, fast, ref)
			return false
		}
	}
	if !lossy {
		var got T
		if err := Decode(bytes.NewReader(want), &got); err != nil {
			t.Errorf("Decode: %v", err)
			return false
		}
		reflect.ValueOf(&msg).Elem().FieldByName("XMLName").Set(reflect.ValueOf(xml.Name{Local: root}))
		if !sameValue(got, msg) {
			t.Errorf("round trip\n got %#v\nwant %#v", got, msg)
			return false
		}
	}
	return true
}

// TestXMLCodecMatchesEncodingXML draws messages of the four request-path
// types — strings with every character the encoder escapes or replaces,
// empty and omitempty fields, NaN, infinities and −0, lists of 0, 1 and
// 10 — and holds the hand-written codec to encoding/xml's behaviour.
func TestXMLCodecMatchesEncodingXML(t *testing.T) {
	for _, lossy := range []bool{false, true} {
		g := docGen{lossy: lossy}
		check := func(lr LookupRequest, vr VoteRequest, rep LookupResponse, ack VoteResponse) bool {
			return checkCodec(t, lr, "lookup", g.lookupRequest(), lossy) &&
				checkCodec(t, vr, "vote", g.voteRequest(), lossy) &&
				checkCodec(t, rep, "software-report", g.lookupResponse(), lossy) &&
				checkCodec(t, ack, "voted", g.voteResponse(), lossy)
		}
		cfg := &quick.Config{MaxCount: 500, Values: func(args []reflect.Value, r *rand.Rand) {
			g.r = r
			args[0] = reflect.ValueOf(g.lookupRequest())
			args[1] = reflect.ValueOf(g.voteRequest())
			args[2] = reflect.ValueOf(g.lookupResponse())
			args[3] = reflect.ValueOf(g.voteResponse())
		}}
		if err := quick.Check(check, cfg); err != nil {
			t.Fatalf("lossy=%v: %v", lossy, err)
		}
	}
}

// diffDecode holds one body, decoded as a T, to the decoder's contract:
// what the scanner accepts, encoding/xml accepts and reads alike; what it
// declines leaves the target untouched; and either way Decode returns
// what encoding/xml returns, the error's text included.
func diffDecode[T any, P interface {
	*T
	Document
}](t *testing.T, body []byte, used T) {
	t.Helper()
	for _, target := range []T{*new(T), used} {
		fast, ref, got := target, target, target
		accepted := P(&fast).scanXML(body)
		refErr := decodeReflect(bytes.NewReader(body), &ref)
		switch {
		case accepted && refErr != nil:
			t.Fatalf("%T: scanner accepted %q, encoding/xml says %v", target, body, refErr)
		case accepted && !sameValue(fast, ref):
			t.Fatalf("%T: %q\nscanner       %#v\nencoding/xml %#v", target, body, fast, ref)
		case !accepted && !sameValue(fast, target):
			t.Fatalf("%T: scanner declined %q but left %#v", target, body, fast)
		}
		err := Decode(bytes.NewReader(body), &got)
		if fmt.Sprint(err) != fmt.Sprint(refErr) || !sameValue(got, ref) {
			t.Fatalf("%T: Decode(%q) = %v, %#v\nencoding/xml: %v, %#v", target, body, err, got, refErr, ref)
		}
	}
}

// diffViews holds the view readers to DecodeXML over one body: a lookup
// and a vote read in place, into a fresh view and into a used one, give
// DecodeXML's verdict, the error's text included, and, copied out, the
// values it reads into a new message; every view's capacity is cut to its
// length.
func diffViews(t *testing.T, body []byte, lookup *LookupView, vote *VoteView) {
	t.Helper()
	var wantLookup LookupRequest
	var wantVote VoteRequest
	lookupErr, voteErr := DecodeXML(body, &wantLookup), DecodeXML(body, &wantVote)
	wantLookup.XMLName, wantVote.XMLName = xml.Name{}, xml.Name{} // a view has none
	capsCut := func(views ...[]byte) {
		t.Helper()
		for _, b := range views {
			if cap(b) != len(b) {
				t.Fatalf("%q: a view of %d bytes has capacity %d", body, len(b), cap(b))
			}
		}
	}
	for _, v := range []*LookupView{new(LookupView), lookup} {
		err := v.ReadXML(body)
		if fmt.Sprint(err) != fmt.Sprint(lookupErr) {
			t.Fatalf("LookupView.ReadXML(%q) = %v, DecodeXML %v", body, err, lookupErr)
		}
		if err != nil {
			continue
		}
		sw := v.Software[0]
		if got := (LookupRequest{Software: sw.Info(), Feeds: v.feeds()}); !sameValue(got, wantLookup) {
			t.Fatalf("LookupView.ReadXML(%q)\n got %#v\nwant %#v", body, got, wantLookup)
		}
		capsCut(append(v.Feeds, sw.ID, sw.FileName, sw.Vendor, sw.Version)...)
	}
	for _, v := range []*VoteView{new(VoteView), vote} {
		err := v.ReadXML(body)
		if fmt.Sprint(err) != fmt.Sprint(voteErr) {
			t.Fatalf("VoteView.ReadXML(%q) = %v, DecodeXML %v", body, err, voteErr)
		}
		if err != nil {
			continue
		}
		if got := v.request(); !sameValue(got, wantVote) {
			t.Fatalf("VoteView.ReadXML(%q)\n got %#v\nwant %#v", body, got, wantVote)
		}
		sw := v.Software
		capsCut(v.Session, v.Behaviors, v.Comment, sw.ID, sw.FileName, sw.Vendor, sw.Version)
	}
}

// xmlFuzzSeeds returns the canonical documents and, for each, the
// departures the scanner must decline or read as encoding/xml does.
func xmlFuzzSeeds() []string {
	g := docGen{r: rand.New(rand.NewSource(15)), lossy: true}
	lr, vr, rep, ack := g.lookupRequest(), g.voteRequest(), g.lookupResponse(), g.voteResponse()
	docs := []string{
		string(AppendXML(nil, &lr)), string(AppendXML(nil, &vr)), string(AppendXML(nil, &rep)), string(AppendXML(nil, &ack)),
		string(AppendXML(nil, &LookupRequest{Software: SoftwareInfo{ID: "abcd", FileName: "x.exe", FileSize: 12}, Feeds: []string{"lab"}})),
		string(AppendXML(nil, sampleReport())),
	}
	seeds := append([]string{
		"", "not xml at all", "<lookup>", "<lookup></lookup>", "<lookup/>", " \n<vote></vote>\n ", "\xef\xbb\xbf<voted></voted>",
		"<lookup><software><id>zz</id></software></lookup>",
		`<?xml version="1.0"?><lookup><software><file-size>NaN</file-size></software></lookup>`,
		`<?xml version="1.1" encoding="UTF-8"?><voted></voted>`,
		`<?xml version="1.0" encoding="latin1"?><voted></voted>`,
		`<!DOCTYPE lookup [<!ENTITY e "x">]><lookup><software><id>&e;</id></software></lookup>`,
		// Attributes and namespaces.
		`<lookup xmlns="urn:x"><software><id>a</id></software></lookup>`,
		`<x:lookup xmlns:x="urn:x"><x:software><x:id>a</x:id></x:software></x:lookup>`,
		`<lookup><software kind="exe"><id lang='en'>a</id></software></lookup>`,
		`<software-report><comments><comment id='7'><user>u</user></comment><comment><user>v</user></comment></comments></software-report>`,
		`<software-report><comments><comment id=" 7 "></comment><comment id="" ></comment><comment id="&#55;"/></comments></software-report>`,
		`<software-report><advice><entry feed="a&lt;b&#x9;c&quot;"><note>n</note></entry><entry feed="x" feed="y"></entry></advice></software-report>`,
		`<software-report><advice><entry feed="a<b"></entry></advice></software-report>`,
		// CDATA, comments, processing instructions.
		`<vote><comment><![CDATA[<b>&amp;]]></comment></vote>`,
		`<vote><!-- hidden --><session>s<!-- in text -->t</session><?pi x?></vote>`,
		`<vote><comment>a]]>b</comment></vote>`,
		// Entities and character references.
		`<vote><session>&lt;&gt;&amp;&apos;&quot;&#34;&#x27;&#xA;&#xd;&#9;</session></vote>`,
		`<vote><session>&#0;</session></vote>`, `<vote><session>&#xD800;</session></vote>`, `<vote><session>&#xFFFE;</session></vote>`,
		`<vote><session>&#x110000;</session></vote>`, `<vote><session>&#00000000065;</session></vote>`, `<vote><session>&#X41;</session></vote>`,
		`<vote><session>&#;</session></vote>`, `<vote><session>&#x;</session></vote>`, `<vote><session>&amp</session></vote>`,
		`<vote><session>&nbsp;</session></vote>`, `<vote><session>&;</session></vote>`, `<vote><session>a&b</session></vote>`,
		`<vote><score>&#49;2</score></vote>`, `<vote><score> 7 </score></vote>`, `<vote><score>+7</score></vote>`, `<vote><score></score></vote>`,
		`<vote><score>99999999999999999999</score></vote>`, `<vote><score>0x10</score></vote>`, `<vote><score>1_0</score></vote>`,
		`<software-report><known>T</known><score>0x1p-2</score><vendor-score>infinity</vendor-score></software-report>`,
		`<software-report><known> true</known></software-report>`, `<software-report><known></known><score></score></software-report>`,
		`<voted><comment-id>-1</comment-id></voted>`, `<voted><comment-id>18446744073709551616</comment-id></voted>`,
		// Raw characters the encoder would have escaped, and bad ones.
		"<vote><comment>line one\nline two\r\nthree\rfour\ttab</comment></vote>",
		"<vote><comment>a > b \" ' </comment></vote>",
		"<vote><comment>\xff</comment></vote>", "<vote><comment>\x01</comment></vote>", "<vote><comment>\uFFFE</comment></vote>",
		"<vote><comment>\xed\xa0\x80</comment></vote>", "<vote><comment>\uFFFD\U0010FFFF</comment></vote>",
		// Duplicate, unknown, nested, misplaced and self-closing elements.
		`<lookup><software><id>a</id><id>b</id></software></lookup>`,
		`<lookup><software><id>a</id></software><software><file-name>f</file-name></software></lookup>`,
		`<lookup><feeds><feed>a</feed></feeds><feeds><feed>b</feed></feeds></lookup>`,
		`<lookup><feeds><feed></feed><feed/><feed> </feed></feeds></lookup>`,
		`<lookup><extra>1</extra><software><id>a</id><sha>q</sha></software></lookup>`,
		`<lookup><software><id>a<b>c</b>d</id></software></lookup>`,
		`<lookup><feed>stray</feed>text<software></software></lookup>`,
		`<lookup><software/><feeds/></lookup>`, `<lookup ><software ><id >a</id ></software ></lookup >`,
		`<vote><software><vendor>v</vendor><vendor-x>w</vendor-x></software></vote>`,
		`<vote><session>s</sessions></vote>`, `<vote><session>s</vote></session>`, `<vote></lookup>`,
		`<software-report><comments><entry feed="f"></entry></comments><advice><comment id="1"></comment></advice></software-report>`,
	}, docs...)
	for _, doc := range docs {
		seeds = append(seeds,
			doc+"trailing garbage", doc+"\n\n", doc+doc, doc+"<", "junk"+doc, "\n\t "+doc,
			strings.TrimPrefix(doc, xml.Header), strings.ReplaceAll(doc, "\n", "\r\n"), strings.ReplaceAll(doc, "\n", ""),
			strings.ReplaceAll(doc, "  <", "<"), strings.Replace(doc, "?>", "?><!-- c -->", 1),
			strings.Replace(doc, `encoding="UTF-8"`, `encoding="utf-8"`, 1), strings.Replace(doc, `"1.0"`, `'1.0'`, 1))
		for cut := 0; cut < len(doc); cut += 1 + len(doc)/40 {
			seeds = append(seeds, doc[:cut])
		}
	}
	return seeds
}

// FuzzXMLDecode is the differential fuzzer of the hand-written decoders
// against encoding/xml (see diffDecode), and of the view readers against
// DecodeXML (diffViews), over the path that faces anonymous,
// unauthenticated input: whatever arrives on the socket, nothing panics
// and the scanner never disagrees with the reference.
func FuzzXMLDecode(f *testing.F) {
	for _, seed := range xmlFuzzSeeds() {
		f.Add(seed)
	}
	g := docGen{r: rand.New(rand.NewSource(16))}
	usedLookup, usedVote, usedReport, usedAck := g.lookupRequest(), g.voteRequest(), g.lookupResponse(), g.voteResponse()
	var lookupView LookupView
	var voteView VoteView
	if lookupView.ReadXML(AppendXML(nil, &usedLookup)) != nil || voteView.ReadXML(AppendXML(nil, &usedVote)) != nil {
		f.Fatal("the view readers declined the encoder's output")
	}
	f.Fuzz(func(t *testing.T, body string) {
		diffDecode(t, []byte(body), usedLookup)
		diffDecode(t, []byte(body), usedVote)
		diffDecode(t, []byte(body), usedReport)
		diffDecode(t, []byte(body), usedAck)
		diffViews(t, []byte(body), &lookupView, &voteView)
		var reg RegisterRequest // a cold document: encoding/xml alone, must not panic
		_ = Decode(strings.NewReader(body), &reg)
	})
}

// TestXMLCodecAllocPins pins what the typed codec calls cost in heap
// allocations on the benchmark's hot-catalogue shape (a report with ten
// comments): a decode allocates the message it fills (it must outlive a
// fall back to encoding/xml) and one string per non-empty string field,
// a report also its comment list; an encode into a buffer with room
// allocates nothing. A pin is the measured value; raise one only with
// the reason in the commit.
func TestXMLCodecAllocPins(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	info := SoftwareInfo{ID: "d82893b5e1917aeff9c468b6b03b40715ad027e7", FileName: "tool-7.exe", FileSize: 4096, Vendor: "Acme", Version: "1.0"}
	report := sampleReport()
	for len(report.Comments) < 10 {
		report.Comments = append(report.Comments, report.Comments[0])
	}
	lookup := AppendXML(nil, &LookupRequest{Software: info})
	vote := AppendXML(nil, &VoteRequest{Session: "0123456789abcdef0123456789abcdef", Software: info, Score: 7, Behaviors: "none"})
	reportDoc := AppendXML(nil, report)
	ack := &VoteResponse{CommentID: 3}
	scratch := make([]byte, 0, 2*len(reportDoc))
	escaped := info
	escaped.FileName, escaped.Vendor = "Tom & Jerry's.exe", "<Acme>"
	escapedVote := AppendXML(nil, &VoteRequest{Session: "0123456789abcdef0123456789abcdef", Software: escaped, Score: 7, Behaviors: "none"})
	var lookupView LookupView
	var voteView VoteView
	err := voteView.ReadXML(escapedVote)
	if err != nil || lookupView.ReadXML(lookup) != nil || string(voteView.Software.FileName) != escaped.FileName {
		t.Fatalf("view reads: %v, %q", err, voteView.Software.FileName)
	}
	pins := []struct {
		name string
		want float64
		call func()
	}{
		// Parent commit (4eec890, encoding/xml through Decode and Encode,
		// the reader and writer included): 95.
		{"DecodeXML(LookupRequest)", 5, func() { var v LookupRequest; err = DecodeXML(lookup, &v) }},
		// Parent commit: 119.
		{"DecodeXML(VoteRequest)", 7, func() { var v VoteRequest; err = DecodeXML(vote, &v) }},
		// Parent commit: 929.
		{"DecodeXML(LookupResponse)", 39, func() { var v LookupResponse; err = DecodeXML(reportDoc, &v) }},
		// Parent commit: 46.
		{"AppendXML(LookupResponse)", 0, func() { scratch = AppendXML(scratch[:0], report) }},
		// Parent commit: 7.
		{"AppendXML(VoteResponse)", 0, func() { scratch = AppendXML(scratch[:0], ack) }},
		// New in this commit: a request read in place into a used view, its
		// text views of the body.
		{"LookupView.ReadXML", 0, func() { err = lookupView.ReadXML(lookup) }},
		{"VoteView.ReadXML", 0, func() { err = voteView.ReadXML(vote) }},
		// New in this commit: text that holds references is unescaped into
		// the used view's buffer.
		{"VoteView.ReadXML, escaped", 0, func() { err = voteView.ReadXML(escapedVote) }},
	}
	for _, p := range pins {
		got := testing.AllocsPerRun(200, p.call)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		t.Logf("%s: %.0f allocs/call (pin %.0f)", p.name, got, p.want)
		if got > p.want {
			t.Errorf("%s: %.0f allocs/call, pinned at %.0f", p.name, got, p.want)
		}
	}
}
