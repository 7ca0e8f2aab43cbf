// Package softreputation is a from-scratch reproduction of the
// collaborative software reputation system of Boldt, Carlsson, Larsson
// and Lindén, "Preventing Privacy-Invasive Software Using Collaborative
// Reputation Systems" (SDM 2007, LNCS 4721).
//
// The package is the library's public facade. It re-exports the pieces a
// downstream user composes into a deployment:
//
//   - Server: the reputation server — accounts with e-mail activation
//     and anti-automation challenges, software lookup by content hash,
//     one-vote-per-user rating with comments and remarks, trust factors
//     with the weekly growth cap, the 24-hour aggregation job, vendor
//     ratings, bootstrap imports, expert feeds and an HTML web view.
//   - Client: the per-machine client — white/black lists, the execution
//     decision flow behind the kernel hook, signature whitelisting,
//     policy enforcement and the 50-execution / 2-per-week rating
//     prompt throttle.
//   - The embedded storage engine (storedb) with WAL, snapshots and
//     crash recovery; the XML wire protocol; the PIS classification of
//     the paper's Tables 1 and 2; a policy-rule DSL; an onion-routing
//     anonymity layer; and the simulation world that reproduces every
//     experiment in EXPERIMENTS.md.
//
// Quick start (see examples/quickstart for the runnable version):
//
//	store, _ := softreputation.OpenStore("./data")
//	srv, _ := softreputation.NewServer(softreputation.ServerConfig{
//		Store:       store,
//		EmailPepper: "a-long-secret-string",
//	})
//	http.ListenAndServe(":8080", srv.Handler())
package softreputation

import (
	"time"

	"softreputation/internal/client"
	"softreputation/internal/core"
	"softreputation/internal/policy"
	"softreputation/internal/repo"
	"softreputation/internal/resilience"
	"softreputation/internal/server"
	"softreputation/internal/signature"
	"softreputation/internal/storedb"
	"softreputation/internal/vclock"
	"softreputation/internal/wire"
)

// Core domain types.
type (
	// SoftwareID identifies an executable by the SHA-1 of its content.
	SoftwareID = core.SoftwareID
	// SoftwareMeta is the per-executable metadata record (§3.3).
	SoftwareMeta = core.SoftwareMeta
	// Behavior is the bitmask of reported software behaviours.
	Behavior = core.Behavior
	// Category is a cell of the paper's Table 1 classification.
	Category = core.Category
	// Verdict is the coarse legitimate/spyware/malware split.
	Verdict = core.Verdict
	// SoftwareScore is a published aggregated rating.
	SoftwareScore = core.SoftwareScore
	// VendorScore is a vendor's derived rating.
	VendorScore = core.VendorScore
)

// Server-side types.
type (
	// Server is the reputation server.
	Server = server.Server
	// ServerConfig configures NewServer.
	ServerConfig = server.Config
	// Store is the persistent repository behind a server.
	Store = repo.Store
	// BootstrapEntry seeds one program before launch (§2.1).
	BootstrapEntry = server.BootstrapEntry
	// MemoryMailer is the in-process activation-mail channel.
	MemoryMailer = server.MemoryMailer
	// ExpertFeed is a §4.2 expert-published advice feed.
	ExpertFeed = server.ExpertFeed
	// RegisterParams carries one domain-level registration attempt.
	RegisterParams = server.RegisterParams
)

// Client-side types.
type (
	// Client is the per-machine reputation client (§3.1).
	Client = client.Client
	// ClientConfig configures NewClient.
	ClientConfig = client.Config
	// API is the XML-over-HTTP protocol client.
	API = client.API
	// Report is what a lookup returns for display at the prompt.
	Report = client.Report
	// Advice is one subscribed expert feed's judgement (§4.2).
	Advice = client.Advice
	// Rating is a user's answer to the rating prompt.
	Rating = client.Rating
	// Prompter is the interactive user interface.
	Prompter = client.Prompter
	// PrompterFuncs adapts functions to Prompter.
	PrompterFuncs = client.PrompterFuncs
	// RegisterRequest is the wire-level registration message.
	RegisterRequest = wire.RegisterRequest
	// FailurePolicy picks the degraded-mode decision when a lookup
	// fails with no cached report: prompt, fail-open or fail-closed.
	FailurePolicy = client.FailurePolicy
)

// Degraded-mode failure policies.
const (
	// FailPrompt asks the user over an empty report (the default).
	FailPrompt = client.FailPrompt
	// FailOpen allows silently during an outage.
	FailOpen = client.FailOpen
	// FailClosed denies silently — critical processes excepted.
	FailClosed = client.FailClosed
)

// Resilience types for the client↔server path.
type (
	// RetryPolicy is the exponential-backoff retry configuration.
	RetryPolicy = resilience.Policy
	// CircuitBreaker is a closed/open/half-open breaker.
	CircuitBreaker = resilience.Breaker
	// ResilienceExecutor composes retries and a breaker around calls.
	ResilienceExecutor = resilience.Executor
	// HTTPStatusError is a non-2xx server answer with retry metadata.
	HTTPStatusError = resilience.HTTPStatusError
)

// NewCircuitBreaker creates a breaker that opens after threshold
// consecutive transient failures and probes again cooldown later.
func NewCircuitBreaker(threshold int, cooldown time.Duration, clock Clock) *CircuitBreaker {
	return resilience.NewBreaker(threshold, cooldown, clock)
}

// NewResilienceExecutor composes a retry policy and an optional breaker;
// install it with API.WithResilience.
func NewResilienceExecutor(retry RetryPolicy, breaker *CircuitBreaker, clock Clock, seed int64) *ResilienceExecutor {
	return resilience.NewExecutor(retry, breaker, clock, seed)
}

// DefaultRetryPolicy returns the stock retry configuration.
func DefaultRetryPolicy() RetryPolicy { return resilience.DefaultPolicy() }

// Policy and signing.
type (
	// Policy is a parsed §4.2 software policy.
	Policy = policy.Policy
	// PolicyContext is the fact set a policy evaluates.
	PolicyContext = policy.Context
	// TrustStore is the trusted-vendor signature store.
	TrustStore = signature.TrustStore
	// Signer holds a vendor's code-signing key.
	Signer = signature.Signer
)

// Clock abstractions for deterministic deployments and tests.
type (
	// Clock is the time source used across the system.
	Clock = vclock.Clock
	// VirtualClock is a manually advanced clock.
	VirtualClock = vclock.Virtual
)

// OpenStore opens (or creates) a repository in dir. Every commit is
// appended to a WAL, but the append reaches the operating system, not the
// disk: no commit is fsynced, so a process crash loses nothing and a
// power loss or kernel crash can lose the latest commits. OpenStoreSync
// fsyncs every commit group before the commits are acknowledged.
func OpenStore(dir string) (*Store, error) {
	return repo.Open(storedb.Options{Dir: dir})
}

// OpenStoreSync opens a durable repository that fsyncs every commit.
func OpenStoreSync(dir string) (*Store, error) {
	return repo.Open(storedb.Options{Dir: dir, SyncWrites: true})
}

// OpenMemoryStore opens a volatile in-memory repository for tests and
// simulations.
func OpenMemoryStore() *Store {
	return repo.OpenMemory()
}

// NewServer constructs a reputation server; see ServerConfig.
func NewServer(cfg ServerConfig) (*Server, error) {
	return server.New(cfg)
}

// NewClient constructs a per-machine client; see ClientConfig.
func NewClient(cfg ClientConfig) *Client {
	return client.New(cfg)
}

// NewAPI constructs a protocol client for the server at baseURL.
func NewAPI(baseURL string) *API {
	return client.NewAPI(baseURL, nil)
}

// ParsePolicy parses the §4.2 policy DSL.
func ParsePolicy(src string) (*Policy, error) {
	return policy.Parse(src)
}

// NewTrustStore creates an empty trusted-vendor store.
func NewTrustStore() *TrustStore {
	return signature.NewTrustStore()
}

// NewSigner generates a code-signing key pair for a vendor.
func NewSigner(vendor string) (*Signer, error) {
	return signature.NewSigner(vendor)
}

// ComputeSoftwareID hashes executable content into its identity.
func ComputeSoftwareID(content []byte) SoftwareID {
	return core.ComputeSoftwareID(content)
}

// Classify maps consent and consequence onto the paper's Table 1 cell.
func Classify(consent core.Consent, consequence core.Consequence) Category {
	return core.Classify(consent, consequence)
}

// ParseBehavior parses a comma-separated behaviour list, e.g.
// "displays-ads,tracks-usage".
func ParseBehavior(s string) (Behavior, error) {
	return core.ParseBehavior(s)
}
