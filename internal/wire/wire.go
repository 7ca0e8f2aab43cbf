// Package wire defines the XML protocol spoken between the reputation
// client and server: "XML is used as the communication protocol between
// the client and the server" (§3.2). Each operation is an HTTP POST (or
// GET for read-only calls) of one XML document to a fixed path; errors
// come back as an <error> document with a machine-readable code and a
// non-2xx status.
package wire

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"sync"
	"time"
)

// ContentType is the media type of every request and response body.
const ContentType = "application/xml; charset=utf-8"

// API paths, one per operation.
const (
	PathChallenge = "/api/challenge"
	PathRegister  = "/api/register"
	PathActivate  = "/api/activate"
	PathLogin     = "/api/login"
	PathLookup    = "/api/lookup"
	PathVote      = "/api/vote"
	PathRemark    = "/api/remark"
	PathVendor    = "/api/vendor"
	PathStats     = "/api/stats"
)

// WritePath reports whether a path changes state only the primary holds:
// votes and remarks, and the account paths around them. Sessions and
// challenge nonces live in one server's memory and exist to authorise
// writes, so a replica's could never be redeemed. The path makes a request
// a write, not its admission class, which the priority header can lower:
// the server's gate refuses by it and the client aims by it.
func WritePath(path string) bool {
	switch path {
	case PathVote, PathRemark, PathLogin, PathRegister, PathActivate, PathChallenge:
		return true
	}
	return false
}

// Operational and replication paths. Health endpoints are plain GETs
// answered by every role; the /repl endpoints are served only by a
// primary publishing its log to replicas.
const (
	PathHealthz      = "/healthz"
	PathReplStatus   = "/replstatus"
	PathReplSnapshot = "/repl/snapshot"
	PathReplWAL      = "/repl/wal"
	PathReplDigest   = "/repl/digest"
)

// Observability paths. /metrics serves the Prometheus text exposition
// and /trace the recent slow/errored-request ring; like the health
// endpoints they bypass the admission gate, because visibility matters
// most exactly when the server is shedding.
const (
	PathMetrics = "/metrics"
	PathTrace   = "/trace"
)

// TimeFormat is how instants are serialised on the wire.
const TimeFormat = time.RFC3339

// Error codes carried in ErrorResponse.
const (
	CodeBadRequest    = "bad-request"
	CodeUserExists    = "user-exists"
	CodeEmailTaken    = "email-taken"
	CodeCaptchaFailed = "captcha-failed"
	CodePuzzleFailed  = "puzzle-failed"
	CodeBadCreds      = "bad-credentials"
	CodeNotActivated  = "not-activated"
	CodeBadSession    = "bad-session"
	CodeAlreadyRated  = "already-rated"
	CodeAlreadyMarked = "already-remarked"
	CodeSelfRemark    = "self-remark"
	CodeNotFound      = "not-found"
	CodeRateLimited   = "rate-limited"
	CodeUnavailable   = "unavailable"
	CodeInternal      = "internal"

	// CodeRedirect is returned (HTTP 421) by a replica refusing a write:
	// the Primary attribute names the server that accepts writes. Clients
	// must not retry the replica; they re-issue against the primary.
	CodeRedirect = "redirect"

	// CodeCompacted is returned (HTTP 410) by /repl/wal when the
	// requested position has been compacted away; the replica must
	// bootstrap from /repl/snapshot before resuming the stream.
	CodeCompacted = "compacted"

	// CodeFenced is returned (HTTP 503) by a primary that has observed a
	// higher promotion epoch than its own: some peer has been promoted
	// past it, so accepting a write would risk a split brain. The fence
	// is sticky — the server serves reads but refuses writes until an
	// operator demotes it back into the replication stream. Clients
	// treat it like CodeUnavailable and fail over.
	CodeFenced = "fenced"

	// CodeOverloaded is returned (HTTP 429) when the admission layer
	// sheds a request: the server is alive but deliberately refusing
	// work it cannot finish in time. Clients should back off and retry
	// the same endpoint — this is not a failover signal, unlike the 503
	// CodeUnavailable emitted while draining.
	CodeOverloaded = "overloaded"
)

// HeaderPriority carries the client's request priority class so the
// admission layer can shed background traffic before critical-process
// lookups (§4.2: a pending execution must never stall behind the
// reputation server). Unknown or absent values fall back to the
// per-path default classification.
const HeaderPriority = "X-Reputation-Priority"

// HeaderEpoch carries the promotion epoch in both directions. On a
// response it is the serving node's current epoch, so clients and
// replicas learn about promotions from any exchange; on a request it is
// the highest epoch the caller has observed, so a stale primary is
// fenced by the first post-promotion request that reaches it.
const HeaderEpoch = "X-Reputation-Epoch"

// HeaderRequestID ties one logical request's hops together: the client
// stamps a fresh ID per logical call and reuses it across retries,
// failover sweeps, and redirect follows; the server adopts a valid
// inbound ID (or mints one at ingress), echoes it on the response, and
// records it in its request trace. Replication pulls carry one per
// pull, so a replica-triggered primary request is attributable too.
const HeaderRequestID = "X-Reputation-Request-Id"

// HeaderAckSeq carries, on write responses, the primary's committed
// sequence number after the write. Together with HeaderEpoch it makes
// every write acknowledgement a fencing token: an ack is (epoch, seq),
// and an ack from a lower epoch than a later observed promotion marks
// the write as needing quarantine review, never silent trust.
const HeaderAckSeq = "X-Reputation-Seq"

// Priority header values.
const (
	PriorityCritical   = "critical"
	PriorityBackground = "background"
)

// ErrorResponse is the error document returned with non-2xx statuses.
// Primary is set only with CodeRedirect and names the base URL of the
// server currently accepting writes.
type ErrorResponse struct {
	XMLName xml.Name `xml:"error"`
	Code    string   `xml:"code,attr"`
	Primary string   `xml:"primary,attr,omitempty"`
	Epoch   uint64   `xml:"epoch,attr,omitempty"`
	Message string   `xml:",chardata"`
}

// Error implements the error interface so decoded wire errors propagate
// naturally through client code.
func (e *ErrorResponse) Error() string {
	return fmt.Sprintf("server error %s: %s", e.Code, e.Message)
}

// ChallengeResponse carries the anti-automation material a client must
// solve before registering: a CAPTCHA nonce (human cost) and a client
// puzzle (computational cost, §5 future work).
type ChallengeResponse struct {
	XMLName          xml.Name `xml:"challenge"`
	CaptchaNonce     string   `xml:"captcha-nonce"`
	PuzzleNonce      string   `xml:"puzzle-nonce"`
	PuzzleDifficulty int      `xml:"puzzle-difficulty"`
}

// RegisterRequest creates an account. The e-mail address travels to the
// server once, is hashed with the secret string, and is never stored in
// clear (§2.2).
type RegisterRequest struct {
	XMLName         xml.Name `xml:"register"`
	Username        string   `xml:"username"`
	Password        string   `xml:"password"`
	Email           string   `xml:"email"`
	CaptchaNonce    string   `xml:"captcha-nonce"`
	CaptchaSolution string   `xml:"captcha-solution"`
	PuzzleNonce     string   `xml:"puzzle-nonce"`
	PuzzleSolution  uint64   `xml:"puzzle-solution"`
}

// RegisterResponse acknowledges the signup; the activation token is
// delivered out of band to the given e-mail address.
type RegisterResponse struct {
	XMLName  xml.Name `xml:"registered"`
	Username string   `xml:"username"`
}

// ActivateRequest completes the e-mail round trip with the token from
// the activation message.
type ActivateRequest struct {
	XMLName xml.Name `xml:"activate"`
	Token   string   `xml:"token"`
}

// ActivateResponse confirms which account was activated.
type ActivateResponse struct {
	XMLName  xml.Name `xml:"activated"`
	Username string   `xml:"username"`
}

// LoginRequest authenticates a user and opens a session.
type LoginRequest struct {
	XMLName  xml.Name `xml:"login"`
	Username string   `xml:"username"`
	Password string   `xml:"password"`
}

// LoginResponse returns the bearer session token.
type LoginResponse struct {
	XMLName xml.Name `xml:"session"`
	Token   string   `xml:"token"`
}

// SoftwareInfo is the §3.3 metadata block sent with lookups and votes.
type SoftwareInfo struct {
	ID       string `xml:"id"`
	FileName string `xml:"file-name"`
	FileSize int64  `xml:"file-size"`
	Vendor   string `xml:"vendor,omitempty"`
	Version  string `xml:"version,omitempty"`
}

// LookupRequest asks the server what it knows about an executable that
// is about to run. Lookups carry no session: they work anonymously so
// that routing them through an anonymity network actually hides who
// runs what (§2.2).
type LookupRequest struct {
	XMLName  xml.Name     `xml:"lookup"`
	Software SoftwareInfo `xml:"software"`
	// Feeds names the expert feeds the client subscribes to (§4.2);
	// the server attaches their advice about this executable.
	Feeds []string `xml:"feeds>feed,omitempty"`
}

// CommentInfo is one user comment as shown to clients. AuthorTrust is
// the comment author's current trust factor, so clients can make "the
// votes and comments of well-known, reliable users more visible" (§2.1).
type CommentInfo struct {
	ID          uint64  `xml:"id,attr"`
	User        string  `xml:"user"`
	Text        string  `xml:"text"`
	Positive    int     `xml:"positive"`
	Negative    int     `xml:"negative"`
	At          string  `xml:"at"`
	AuthorTrust float64 `xml:"author-trust"`
}

// AdviceInfo is one subscribed expert feed's judgement of the
// executable (§4.2).
type AdviceInfo struct {
	Feed      string  `xml:"feed,attr"`
	Score     float64 `xml:"score"`
	Behaviors string  `xml:"behaviors"`
	Note      string  `xml:"note"`
}

// LookupResponse is everything the client shows the user at the
// execution prompt: the aggregated score, vote count, behaviour
// profile, the vendor's derived rating, the comments, and advice from
// any subscribed expert feeds.
type LookupResponse struct {
	XMLName     xml.Name      `xml:"software-report"`
	Known       bool          `xml:"known"`
	ID          string        `xml:"id"`
	Score       float64       `xml:"score"`
	Votes       int           `xml:"votes"`
	Behaviors   string        `xml:"behaviors"`
	Vendor      string        `xml:"vendor,omitempty"`
	VendorScore float64       `xml:"vendor-score"`
	VendorCount int           `xml:"vendor-count"`
	Comments    []CommentInfo `xml:"comments>comment"`
	Advice      []AdviceInfo  `xml:"advice>entry,omitempty"`
}

// VoteRequest casts the session user's single vote on an executable,
// optionally with a comment and observed behaviours.
type VoteRequest struct {
	XMLName   xml.Name     `xml:"vote"`
	Session   string       `xml:"session"`
	Software  SoftwareInfo `xml:"software"`
	Score     int          `xml:"score"`
	Behaviors string       `xml:"behaviors,omitempty"`
	Comment   string       `xml:"comment,omitempty"`
}

// VoteResponse acknowledges the vote; CommentID is non-zero when a
// comment was attached.
type VoteResponse struct {
	XMLName   xml.Name `xml:"voted"`
	CommentID uint64   `xml:"comment-id"`
}

// RemarkRequest judges another user's comment (§3.2).
type RemarkRequest struct {
	XMLName   xml.Name `xml:"remark"`
	Session   string   `xml:"session"`
	CommentID uint64   `xml:"comment-id"`
	Positive  bool     `xml:"positive"`
}

// RemarkResponse acknowledges the remark.
type RemarkResponse struct {
	XMLName xml.Name `xml:"remarked"`
}

// VendorRequest asks for a vendor's derived rating (§3.3).
type VendorRequest struct {
	XMLName xml.Name `xml:"vendor-lookup"`
	Vendor  string   `xml:"vendor"`
}

// VendorResponse carries the vendor's derived rating.
type VendorResponse struct {
	XMLName       xml.Name `xml:"vendor-report"`
	Vendor        string   `xml:"vendor"`
	Known         bool     `xml:"known"`
	Score         float64  `xml:"score"`
	SoftwareCount int      `xml:"software-count"`
}

// StatsResponse summarises the database for the web view.
type StatsResponse struct {
	XMLName  xml.Name `xml:"stats"`
	Users    int      `xml:"users"`
	Software int      `xml:"software"`
	Ratings  int      `xml:"ratings"`
	Comments int      `xml:"comments"`
	Remarks  int      `xml:"remarks"`
}

// Server roles reported by HealthzResponse.
const (
	RolePrimary = "primary"
	RoleReplica = "replica"
)

// Storage states reported by HealthzResponse and ReplStatusResponse.
const (
	StorageOK     = "ok"
	StorageFailed = "failed"
	// StorageCorrupt is the sticky corrupt state: a checksum proved
	// durable bytes wrong. Reads keep serving; writes refuse until the
	// store is repaired from a healthy peer.
	StorageCorrupt = "corrupt"
)

// StorageInfo is the state of the server's store: ok, or the sticky
// failed or corrupt (read-only) state with its cause. Its counters
// (reopens, group commits, compactions, scrub passes) are on /metrics.
type StorageInfo struct {
	State       string `xml:"state"`
	LastFailure string `xml:"last-failure,omitempty"`
	// CorruptUnit names the damaged unit when State is "corrupt":
	// snapshot-header, snapshot-block, or wal-frame.
	CorruptUnit string `xml:"corrupt-unit,omitempty"`
}

// HealthzResponse is the GET /healthz document: the node's state, enough
// for a client to decide whether this endpoint can serve its request
// (role, drain state, fence, storage state) and how fresh it is
// (sequence number and replication lag). When adaptive admission is
// enabled, Brownout names the current degradation level. Counts live
// on /metrics, not here.
type HealthzResponse struct {
	XMLName xml.Name `xml:"healthz"`
	// Protocols names the wire formats this endpoint speaks, most
	// preferred first ("binary,xml", or "xml" on the compat arm). Empty
	// means a pre-binary server: XML only.
	Protocols string       `xml:"protocols,omitempty"`
	Role      string       `xml:"role"`
	Primary   string       `xml:"primary,omitempty"`
	Seq       uint64       `xml:"seq"`
	Epoch     uint64       `xml:"epoch"`
	Fenced    bool         `xml:"fenced,omitempty"`
	Lag       uint64       `xml:"lag"`
	Draining  bool         `xml:"draining"`
	Storage   *StorageInfo `xml:"storage,omitempty"`
	Brownout  string       `xml:"brownout,omitempty"`
}

// ReplicaStatusInfo is one replica's replication progress as tracked by
// the primary it pulls from.
type ReplicaStatusInfo struct {
	ID        string `xml:"id,attr"`
	AckSeq    uint64 `xml:"ack-seq"`
	Lag       uint64 `xml:"lag"`
	LastPoll  string `xml:"last-poll,omitempty"`
	Snapshots int    `xml:"snapshots"`
}

// ReplStatusResponse is the GET /replstatus document describing the
// replication tier from this server's point of view.
type ReplStatusResponse struct {
	XMLName  xml.Name            `xml:"replstatus"`
	Role     string              `xml:"role"`
	Seq      uint64              `xml:"seq"`
	Epoch    uint64              `xml:"epoch"`
	Digest   uint64              `xml:"digest"`
	Fenced   bool                `xml:"fenced,omitempty"`
	SnapSeq  uint64              `xml:"snap-seq"`
	Storage  string              `xml:"storage,omitempty"`
	Replicas []ReplicaStatusInfo `xml:"replicas>replica,omitempty"`
}

// ReplDigestResponse is the GET /repl/digest?seq=N document: the
// primary's history digest at sequence N, used by a reconnecting
// replica to find the last sequence number where its history and the
// primary's agree. Known is false when the primary can no longer
// answer for that position (compacted away); the replica must fall
// back to a snapshot bootstrap.
type ReplDigestResponse struct {
	XMLName xml.Name `xml:"repl-digest"`
	Seq     uint64   `xml:"seq"`
	Digest  uint64   `xml:"digest"`
	Known   bool     `xml:"known"`
	Epoch   uint64   `xml:"epoch"`
}

// Encode writes v as an XML document with the standard header: a
// Document, given by pointer or by value, through the codec of
// xmlcodec.go, every other message through encoding/xml.
func Encode(w io.Writer, v interface{}) error {
	var doc Document
	switch m := v.(type) {
	case Document:
		doc = m
	case LookupRequest:
		doc = &m
	case VoteRequest:
		doc = &m
	case LookupResponse:
		doc = &m
	case VoteResponse:
		doc = &m
	}
	if doc != nil {
		var scratch []byte
		if buf, ok := w.(*bytes.Buffer); ok {
			scratch = buf.AvailableBuffer() // encode in place: the Write below copies nothing
		}
		if _, err := w.Write(doc.appendXML(scratch)); err != nil {
			return fmt.Errorf("wire: encode: %w", err)
		}
		return nil
	}
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return fmt.Errorf("wire: write header: %w", err)
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(v); err != nil {
		return fmt.Errorf("wire: encode: %w", err)
	}
	return nil
}

// bodies pools the buffers Decode reads a Document's body into.
var bodies = sync.Pool{New: func() interface{} { return new(bytes.Buffer) }}

// Decode reads one XML document from r into v. For a Document it reads r
// to its end and decodes what it read with DecodeXML.
func Decode(r io.Reader, v interface{}) error {
	doc, ok := v.(Document)
	if !ok {
		return decodeReflect(r, v)
	}
	buf := bodies.Get().(*bytes.Buffer)
	defer bodies.Put(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(r); err != nil {
		return fmt.Errorf("wire: decode: %w", err)
	}
	return DecodeXML(buf.Bytes(), doc)
}

// decodeReflect is Decode by encoding/xml.
func decodeReflect(r io.Reader, v interface{}) error {
	if err := xml.NewDecoder(r).Decode(v); err != nil {
		return fmt.Errorf("wire: decode: %w", err)
	}
	return nil
}
