// Hand-written XML codec for the four documents on the request path:
// LookupRequest, VoteRequest, LookupResponse, VoteResponse. Each type
// lists its fields once (xmlFields) and both directions walk that list;
// the other documents go through encoding/xml in Encode and Decode. The
// two requests are also read in place, into a LookupView or a VoteView.
//
// Encoding replaces encoding/xml for these types, byte for byte. Decoding
// is one pass over the body that accepts the form the encoder writes,
// children in any order, and declines everything else (DESIGN.md, Wire
// codec, lists what); a declined body is decoded again by encoding/xml,
// so third-party XML still works and every error string is
// encoding/xml's own. What the scanner accepts it reads as encoding/xml
// does: fields the document lacks keep their value, lists are appended to.
package wire

import (
	"bytes"
	"encoding/xml"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Document is a message with the hand-written codec: *LookupRequest,
// *VoteRequest, *LookupResponse or *VoteResponse.
type Document interface {
	appendXML(dst []byte) []byte
	// scanXML reads data into the message and reports whether it could:
	// if not, the message is as it was.
	scanXML(data []byte) bool
}

// AppendXML appends doc's XML document, as Encode writes it, to dst.
func AppendXML(dst []byte, doc Document) []byte { return doc.appendXML(dst) }

// DecodeXML reads one XML document from data into doc, as Decode does.
func DecodeXML(data []byte, doc Document) error {
	if doc.scanXML(data) {
		return nil
	}
	return decodeReflect(bytes.NewReader(data), doc)
}

// ReadXML reads a LookupRequest document into v, as DecodeXML reads one
// into a new message, in place: each text is a view of body or, if it
// held a character reference, of v.Unescaped, unescaped (scanView). A
// document the scanner declines is decoded by encoding/xml, as DecodeXML's
// is, and read from what the encoder writes of what that read.
func (v *LookupView) ReadXML(body []byte) error {
	if v.scanXML(body) {
		return nil
	}
	var m LookupRequest
	if err := decodeReflect(bytes.NewReader(body), &m); err != nil {
		return err
	}
	fields := m.xmlFields()
	fields[1].kind = 0 // an empty feed name is written too
	v.scanXML(appendDocument(nil, "lookup", fields[:]))
	return nil
}

func (v *LookupView) scanXML(doc []byte) bool {
	v.Software, v.Feeds = append(v.Software[:0], SoftwareView{}), v.Feeds[:0]
	fields := lookupFields(&v.Software[0], &v.Feeds)
	return scanView(doc, &v.Unescaped, "lookup", fields[:])
}

// ReadXML reads a VoteRequest document into v, as LookupView's ReadXML
// reads a lookup.
func (v *VoteView) ReadXML(body []byte) error {
	if v.scanXML(body) {
		return nil
	}
	var m VoteRequest
	if err := decodeReflect(bytes.NewReader(body), &m); err != nil {
		return err
	}
	v.scanXML(m.appendXML(nil))
	return nil
}

func (v *VoteView) scanXML(doc []byte) bool {
	*v = VoteView{Unescaped: v.Unescaped}
	fields := voteFields(&v.Session, &v.Software, &v.Score, &v.Behaviors, &v.Comment)
	return scanView(doc, &v.Unescaped, "vote", fields[:])
}

// xmlField is one attribute or child element of an element.
type xmlField struct {
	// name is the element's or attribute's name; for a list, the parent's
	// and the entries', as in the struct tag: "comments>comment".
	name string
	// ptr is where the value lives: a *string, *[]byte (read only, a
	// view), *int, *int64, *uint64, *float64 or *bool; a software block; or
	// a list, *[]string, *[][]byte, *[]CommentInfo or *[]AdviceInfo.
	ptr  interface{}
	kind int
}

const (
	xmlOmitEmpty = 1 + iota // a string that is left out when empty
	xmlAttr                 // an attribute of the start tag, not a child
)

// The request documents list their fields once, for the message and for
// its view (LookupView, VoteView) alike.

func softwareFields(id, fileName, fileSize, vendor, version interface{}) [5]xmlField {
	return [...]xmlField{
		{"id", id, 0},
		{"file-name", fileName, 0},
		{"file-size", fileSize, 0},
		{"vendor", vendor, xmlOmitEmpty},
		{"version", version, xmlOmitEmpty},
	}
}

func lookupFields(software, feeds interface{}) [2]xmlField {
	return [...]xmlField{
		{"software", software, 0},
		{"feeds>feed", feeds, xmlOmitEmpty}, // omitempty reaches the entries
	}
}

func voteFields(session, software, score, behaviors, comment interface{}) [5]xmlField {
	return [...]xmlField{
		{"session", session, 0},
		{"software", software, 0},
		{"score", score, 0},
		{"behaviors", behaviors, xmlOmitEmpty},
		{"comment", comment, xmlOmitEmpty},
	}
}

func (m *SoftwareInfo) xmlFields() [5]xmlField {
	return softwareFields(&m.ID, &m.FileName, &m.FileSize, &m.Vendor, &m.Version)
}

func (v *SoftwareView) xmlFields() [5]xmlField {
	return softwareFields(&v.ID, &v.FileName, &v.FileSize, &v.Vendor, &v.Version)
}

func (m *LookupRequest) xmlFields() [2]xmlField { return lookupFields(&m.Software, &m.Feeds) }

func (m *VoteRequest) xmlFields() [5]xmlField {
	return voteFields(&m.Session, &m.Software, &m.Score, &m.Behaviors, &m.Comment)
}

func (m *CommentInfo) xmlFields() [7]xmlField {
	return [...]xmlField{
		{"id", &m.ID, xmlAttr},
		{"user", &m.User, 0},
		{"text", &m.Text, 0},
		{"positive", &m.Positive, 0},
		{"negative", &m.Negative, 0},
		{"at", &m.At, 0},
		{"author-trust", &m.AuthorTrust, 0},
	}
}

func (m *AdviceInfo) xmlFields() [4]xmlField {
	return [...]xmlField{
		{"feed", &m.Feed, xmlAttr},
		{"score", &m.Score, 0},
		{"behaviors", &m.Behaviors, 0},
		{"note", &m.Note, 0},
	}
}

func (m *LookupResponse) xmlFields() [10]xmlField {
	return [...]xmlField{
		{"known", &m.Known, 0},
		{"id", &m.ID, 0},
		{"score", &m.Score, 0},
		{"votes", &m.Votes, 0},
		{"behaviors", &m.Behaviors, 0},
		{"vendor", &m.Vendor, xmlOmitEmpty},
		{"vendor-score", &m.VendorScore, 0},
		{"vendor-count", &m.VendorCount, 0},
		{"comments>comment", &m.Comments, 0},
		{"advice>entry", &m.Advice, 0},
	}
}

func (m *VoteResponse) xmlFields() [1]xmlField {
	return [...]xmlField{{"comment-id", &m.CommentID, 0}}
}

func (m *LookupRequest) appendXML(dst []byte) []byte {
	fields := m.xmlFields()
	return appendDocument(dst, "lookup", fields[:])
}

func (m *VoteRequest) appendXML(dst []byte) []byte {
	fields := m.xmlFields()
	return appendDocument(dst, "vote", fields[:])
}

func (m *LookupResponse) appendXML(dst []byte) []byte {
	fields := m.xmlFields()
	return appendDocument(dst, "software-report", fields[:])
}

func (m *VoteResponse) appendXML(dst []byte) []byte {
	fields := m.xmlFields()
	return appendDocument(dst, "voted", fields[:])
}

func (m *LookupRequest) scanXML(data []byte) bool {
	old, fields := *m, m.xmlFields()
	return scanDocument(data, "lookup", &m.XMLName, fields[:]) || restore(m, old)
}

func (m *VoteRequest) scanXML(data []byte) bool {
	old, fields := *m, m.xmlFields()
	return scanDocument(data, "vote", &m.XMLName, fields[:]) || restore(m, old)
}

func (m *LookupResponse) scanXML(data []byte) bool {
	old, fields := *m, m.xmlFields()
	return scanDocument(data, "software-report", &m.XMLName, fields[:]) || restore(m, old)
}

func (m *VoteResponse) scanXML(data []byte) bool {
	old, fields := *m, m.xmlFields()
	return scanDocument(data, "voted", &m.XMLName, fields[:]) || restore(m, old)
}

// restore undoes a scan that failed part-way.
func restore[T any](m *T, old T) bool {
	*m = old
	return false
}

// isXMLChar mirrors encoding/xml's character range (XML 1.0, 2.2).
func isXMLChar(r rune) bool {
	return r == '\t' || r == '\n' || r == '\r' ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// xmlReferences are the references the scanner reads: the eight the
// encoder writes (xmlWritten), and the two entity names it does not use
// for quotes.
const xmlWritten = 8

var xmlReferences = [...]struct {
	ref string
	c   byte
}{
	{"&lt;", '<'}, {"&gt;", '>'}, {"&amp;", '&'}, {"&#34;", '"'}, {"&#39;", '\''},
	{"&#x9;", '\t'}, {"&#xA;", '\n'}, {"&#xD;", '\r'}, {"&quot;", '"'}, {"&apos;", '\''},
}

// xmlWriter accumulates a document.
type xmlWriter struct {
	buf []byte
}

func appendDocument(dst []byte, root string, fields []xmlField) []byte {
	w := xmlWriter{buf: append(dst, xml.Header[:len(xml.Header)-1]...)}
	w.element(0, root, fields)
	return w.buf
}

// open starts a new line at the given depth with "<name".
func (w *xmlWriter) open(depth int, name string) {
	w.indent(depth)
	w.buf = append(w.buf, '<')
	w.buf = append(w.buf, name...)
}

func (w *xmlWriter) indent(depth int) {
	const eightLevels = "\n                "
	w.buf = append(w.buf, eightLevels[:1+2*depth]...)
}

// close ends an element: on a line of its own after children, on the
// line of its start tag after text or nothing.
func (w *xmlWriter) close(depth int, name string, children bool) {
	if children {
		w.indent(depth)
	}
	w.buf = append(w.buf, "</"...)
	w.buf = append(w.buf, name...)
	w.buf = append(w.buf, '>')
}

// element writes an element with its attributes and children.
func (w *xmlWriter) element(depth int, name string, fields []xmlField) {
	w.open(depth, name)
	for _, f := range fields {
		if f.kind == xmlAttr {
			w.buf = append(w.buf, ' ')
			w.buf = append(w.buf, f.name...)
			w.buf = append(w.buf, `="`...)
			w.scalar(f.ptr)
			w.buf = append(w.buf, '"')
		}
	}
	w.buf = append(w.buf, '>')
	mark := len(w.buf)
	for _, f := range fields {
		if f.kind != xmlAttr {
			w.child(depth+1, f)
		}
	}
	w.close(depth, name, len(w.buf) > mark)
}

// child writes one child element.
func (w *xmlWriter) child(depth int, f xmlField) {
	if s, ok := f.ptr.(*string); ok && f.kind == xmlOmitEmpty && *s == "" {
		return
	}
	if p, ok := f.ptr.(*SoftwareInfo); ok {
		fields := p.xmlFields()
		w.element(depth, f.name, fields[:])
		return
	}
	name, item, _ := strings.Cut(f.name, ">")
	w.open(depth, name)
	w.buf = append(w.buf, '>')
	mark := len(w.buf)
	switch p := f.ptr.(type) {
	case *[]string:
		for i := range *p {
			w.child(depth+1, xmlField{item, &(*p)[i], f.kind})
		}
	case *[]CommentInfo:
		for i := range *p {
			fields := (*p)[i].xmlFields()
			w.element(depth+1, item, fields[:])
		}
	case *[]AdviceInfo:
		for i := range *p {
			fields := (*p)[i].xmlFields()
			w.element(depth+1, item, fields[:])
		}
	default:
		w.scalar(p)
		mark = len(w.buf)
	}
	w.close(depth, name, len(w.buf) > mark)
}

// scalar appends a value as encoding/xml formats it.
func (w *xmlWriter) scalar(ptr interface{}) {
	switch p := ptr.(type) {
	case *string:
		w.text(*p)
	case *int:
		w.buf = strconv.AppendInt(w.buf, int64(*p), 10)
	case *int64:
		w.buf = strconv.AppendInt(w.buf, *p, 10)
	case *uint64:
		w.buf = strconv.AppendUint(w.buf, *p, 10)
	case *float64:
		w.buf = strconv.AppendFloat(w.buf, *p, 'g', -1, 64)
	case *bool:
		w.buf = strconv.AppendBool(w.buf, *p)
	}
}

// xmlEscapes maps an ASCII character to what the encoder writes in its
// place, "" for itself.
var xmlEscapes = func() (t [utf8.RuneSelf]string) {
	for c := range t[:' '] {
		t[c] = "\uFFFD" // not XML characters, but for the three below
	}
	for _, e := range xmlReferences[:xmlWritten] {
		t[e.c] = e.ref
	}
	return t
}()

// text appends s escaped as encoding/xml escapes character data and
// attribute values.
func (w *xmlWriter) text(s string) {
	last := 0
	for i := 0; i < len(s); {
		esc, width := "", 1
		if c := s[i]; c < utf8.RuneSelf {
			esc = xmlEscapes[c]
		} else if r, n := utf8.DecodeRuneInString(s[i:]); r == utf8.RuneError && n == 1 || !isXMLChar(r) {
			esc, width = "\uFFFD", n
		} else {
			width = n
		}
		if esc != "" {
			w.buf = append(w.buf, s[last:i]...)
			w.buf = append(w.buf, esc...)
			last = i + width
		}
		i += width
	}
	w.buf = append(w.buf, s[last:]...)
}

// softwareBlock is a software element's target: a *SoftwareInfo or a
// *SoftwareView.
type softwareBlock interface{ xmlFields() [5]xmlField }

// xmlScanner walks a document, latching the first departure from the
// accepted form so reads can chain without per-call checks: after it
// they consume nothing.
type xmlScanner struct {
	b   []byte // the document
	i   int    // the read position
	bad bool
	// tmp holds the text that held a reference, unescaped, each behind the
	// last. It has room for the whole document from its first use, so it
	// never moves: what chars returned of it stays valid.
	tmp []byte
}

func scanDocument(data []byte, root string, name *xml.Name, fields []xmlField) bool {
	*name = xml.Name{Local: root}
	return scanView(data, new([]byte), root, fields)
}

// scanView is scanDocument for a view: text that held a reference is
// unescaped into buf, which keeps the room it grew to.
func scanView(data []byte, buf *[]byte, root string, fields []xmlField) bool {
	s := xmlScanner{b: data, tmp: (*buf)[:0]}
	if prolog := xml.Header[:len(xml.Header)-1]; bytes.HasPrefix(data, []byte(prolog)) {
		s.i = len(prolog)
	}
	s.space()
	s.skip("<")
	s.skip(root)
	s.element(root, fields)
	s.space()
	*buf = s.tmp[:0]
	return !s.bad && s.i == len(data)
}

func (s *xmlScanner) space() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\n' || s.b[s.i] == '\t' || s.b[s.i] == '\r') {
		s.i++
	}
}

// skip consumes lit, or fails the scan.
func (s *xmlScanner) skip(lit string) {
	if s.bad || len(s.b)-s.i < len(lit) || string(s.b[s.i:s.i+len(lit)]) != lit {
		s.bad = true
		return
	}
	s.i += len(lit)
}

// next reads up to the next tag in parent's content and reports whether
// a child starts there, leaving its name to read; the other tag it
// accepts, and consumes, is parent's end tag.
func (s *xmlScanner) next(parent string) bool {
	s.space()
	s.skip("<")
	if s.bad || s.i < len(s.b) && s.b[s.i] != '/' {
		return !s.bad
	}
	s.skip("/")
	s.skip(parent)
	s.skip(">")
	return false
}

// element reads the rest of an element whose "<name" was read: its
// attributes, its children, each at most once, and its end tag.
func (s *xmlScanner) element(name string, fields []xmlField) {
	for _, f := range fields {
		if f.kind == xmlAttr {
			s.skip(" ")
			s.skip(f.name)
			s.skip(`="`)
			s.scalar(f.ptr, s.chars('"'))
			s.skip(`"`)
		}
	}
	s.skip(">")
	// The search for a child's field starts after the last one found:
	// in the encoder's order, at the field itself.
	for seen, k := 0, -1; s.next(name); {
		rest, tries := s.b[s.i:], 0
		for ; tries < len(fields); tries++ {
			k = (k + 1) % len(fields)
			tag, _, _ := strings.Cut(fields[k].name, ">") // of a list, its parent's name
			if n := len(tag); fields[k].kind != xmlAttr && len(rest) > n && string(rest[:n]) == tag && rest[n] == '>' {
				s.i += n
				break
			}
		}
		if tries == len(fields) || seen&(1<<k) != 0 {
			s.bad = true
			return
		}
		seen |= 1 << k
		s.child(fields[k])
	}
}

// child reads the rest of a child element whose "<name" was read.
func (s *xmlScanner) child(f xmlField) {
	if p, ok := f.ptr.(softwareBlock); ok {
		fields := p.xmlFields()
		s.element(f.name, fields[:])
		return
	}
	s.skip(">")
	name, item, _ := strings.Cut(f.name, ">")
	switch p := f.ptr.(type) {
	case *[]string:
		scanTexts(s, p, name, item)
	case *[][]byte:
		scanTexts(s, p, name, item)
	case *[]CommentInfo:
		if n := bytes.Count(s.b[s.i:], []byte(item)) / 2; n > 0 && *p == nil {
			*p = make([]CommentInfo, 0, n) // room for all at once: every entry names itself in two tags
		}
		for s.next(name) {
			s.skip(item)
			*p = append(*p, CommentInfo{})
			fields := (*p)[len(*p)-1].xmlFields()
			s.element(item, fields[:])
		}
	case *[]AdviceInfo:
		for s.next(name) {
			s.skip(item)
			*p = append(*p, AdviceInfo{})
			fields := (*p)[len(*p)-1].xmlFields()
			s.element(item, fields[:])
		}
	default:
		s.scalar(p, s.text(name))
	}
}

// scanTexts reads a list of leaf elements named item in the element name.
func scanTexts[S string | []byte](s *xmlScanner, p *[]S, name, item string) {
	for s.next(name) {
		s.skip(item)
		s.skip(">")
		*p = append(*p, S(s.text(item)))
	}
}

// text reads the rest of a leaf element: character data and end tag.
func (s *xmlScanner) text(name string) []byte {
	v := s.chars('<')
	s.skip("</")
	s.skip(name)
	s.skip(">")
	return v
}

// chars reads character data up to the byte end, '<' for an element's
// text and '"' for an attribute value, and returns it with references
// replaced: a view of the document, or of tmp if it held one, its
// capacity cut to its length either way.
func (s *xmlScanner) chars(end byte) []byte {
	start, from, mark := s.i, s.i, len(s.tmp) // tmp[mark:] holds what precedes from
	for !s.bad && s.i < len(s.b) {
		switch c := s.b[s.i]; {
		case c == end:
			if from == start {
				return s.b[start:s.i:s.i]
			}
			s.tmp = append(s.tmp, s.b[from:s.i]...)
			return s.tmp[mark:len(s.tmp):len(s.tmp)]
		case c == '&':
			if cap(s.tmp) < len(s.b) { // its first use: no document unescapes to more than itself
				s.tmp = make([]byte, 0, len(s.b))
			}
			s.bad = true
			for _, e := range xmlReferences {
				if bytes.HasPrefix(s.b[s.i:], []byte(e.ref)) {
					s.tmp = append(append(s.tmp, s.b[from:s.i]...), e.c)
					s.i += len(e.ref)
					from, s.bad = s.i, false
					break
				}
			}
		case c < ' ' || c == '<' || c == '>':
			s.bad = true
		case c < utf8.RuneSelf:
			s.i++
		default:
			r, n := utf8.DecodeRune(s.b[s.i:])
			s.bad = r == utf8.RuneError && n == 1 || !isXMLChar(r)
			s.i += n
		}
	}
	s.bad = true
	return nil
}

// scalar parses src into the value with the function encoding/xml uses,
// so what it accepts it reads alike; what encoding/xml would first trim,
// or reads as zero when empty, it declines.
func (s *xmlScanner) scalar(ptr interface{}, src []byte) {
	var err error
	switch p := ptr.(type) {
	case *string:
		*p = string(src)
	case *[]byte:
		*p = src
	case *int:
		var v int64
		v, err = strconv.ParseInt(string(src), 10, 0)
		*p = int(v)
	case *int64:
		*p, err = strconv.ParseInt(string(src), 10, 64)
	case *uint64:
		*p, err = strconv.ParseUint(string(src), 10, 64)
	case *float64:
		*p, err = strconv.ParseFloat(string(src), 64)
	case *bool:
		*p, err = strconv.ParseBool(string(src))
	}
	s.bad = s.bad || err != nil
}
