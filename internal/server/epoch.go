package server

import (
	"net/http"
	"strconv"
	"time"

	"softreputation/internal/wire"
)

// Epoch fencing. Every promotion durably bumps the store's epoch, and
// every request or response can carry the highest epoch its sender has
// observed (wire.HeaderEpoch). A primary that learns of a higher epoch
// than its own — from any client request or peer — has been superseded
// while partitioned away: it fences itself, serving reads but refusing
// writes, until an operator demotes it back into the replication
// stream. The fence is sticky for the same reason the storage-failure
// state is: a deposed primary that silently kept acking writes would
// fork history, and the fork's writes would need quarantine review
// anyway.

// Epoch returns the store's current promotion epoch.
func (s *Server) Epoch() uint64 { return s.store.DB().Epoch() }

// Fenced reports whether this server has observed a higher epoch than
// its own and is refusing writes.
func (s *Server) Fenced() bool { return s.store.DB().Fenced() }

// ObserveEpoch folds an epoch observed from a peer or client into the
// server's fencing state: a primary seeing proof of a later promotion
// fences itself. Replicas ignore observations — they already refuse
// writes, and their replication puller handles epoch policing.
func (s *Server) ObserveEpoch(e uint64) {
	if e == 0 || s.isReplica.Load() {
		return
	}
	if e > s.store.DB().Epoch() {
		s.store.DB().Fence()
	}
}

// epochWriter stamps the fencing headers on the response at
// WriteHeader time: the epoch this server is at, and its committed
// sequence number — read after the handler ran, so a write
// acknowledgement carries the (epoch, seq) position that includes the
// write. That pair is the fencing token clients use to detect a
// deposed primary.
type epochWriter struct {
	http.ResponseWriter
	s     *Server
	wrote bool
}

func (ew *epochWriter) WriteHeader(status int) {
	if !ew.wrote {
		ew.wrote = true
		h := ew.Header()
		h.Set(wire.HeaderEpoch, strconv.FormatUint(ew.s.Epoch(), 10))
		h.Set(wire.HeaderAckSeq, strconv.FormatUint(ew.s.store.Seq(), 10))
	}
	ew.ResponseWriter.WriteHeader(status)
}

func (ew *epochWriter) Write(p []byte) (int, error) {
	if !ew.wrote {
		ew.WriteHeader(http.StatusOK)
	}
	return ew.ResponseWriter.Write(p)
}

// epochMiddleware is the outermost layer of the handler chain: it
// learns promotions from request headers before any gate decides
// anything (so even a request that will be shed fences a stale
// primary), and stamps the response headers so every exchange teaches
// the client the server's position.
func (s *Server) epochMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if v := r.Header.Get(wire.HeaderEpoch); v != "" {
			if e, err := strconv.ParseUint(v, 10, 64); err == nil {
				s.ObserveEpoch(e)
			}
		}
		next.ServeHTTP(&epochWriter{ResponseWriter: w, s: s}, r)
	})
}

// writeFenced answers 503 with the fenced error document: this server
// was the primary but a peer has been promoted past it; the client must
// fail over to the higher-epoch primary.
func writeFenced(w http.ResponseWriter, retryAfter time.Duration, epoch uint64) {
	writeShed(w, http.StatusServiceUnavailable, retryAfter, &wire.ErrorResponse{
		Code:    wire.CodeFenced,
		Epoch:   epoch,
		Message: "fenced by a higher promotion epoch; writes refused",
	})
}
