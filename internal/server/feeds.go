package server

import (
	"sort"
	"sync"

	"softreputation/internal/core"
)

// Expert feeds (§4.2 improvement suggestion): "allowing for instance
// organisations or groups of technically skilled individuals to publish
// their software ratings and other feedback within the reputation
// system", which users subscribe to instead of — or alongside — the
// all-members vote aggregate.

// ExpertAdvice is one feed entry about one executable.
type ExpertAdvice struct {
	// Software identifies the executable.
	Software core.SoftwareID
	// Score is the organisation's 1–10 grade.
	Score float64
	// Behaviors is the organisation's behaviour assessment.
	Behaviors core.Behavior
	// Note is a short free-text justification.
	Note string
}

// ExpertFeed is a named publisher of advice. It is safe for concurrent
// use.
type ExpertFeed struct {
	// Name identifies the feed, e.g. "cert.example.org".
	Name string

	mu      sync.RWMutex
	entries map[core.SoftwareID]ExpertAdvice

	// onPublish lets the owning server invalidate cached reports that
	// would now carry different advice; nil on detached feeds.
	onPublish func(core.SoftwareID)
}

// Publish inserts or replaces advice about one executable.
func (f *ExpertFeed) Publish(a ExpertAdvice) {
	f.mu.Lock()
	f.entries[a.Software] = a
	hook := f.onPublish
	f.mu.Unlock()
	if hook != nil {
		hook(a.Software)
	}
}

// Advice returns the feed's entry for an executable, if any.
func (f *ExpertFeed) Advice(id core.SoftwareID) (ExpertAdvice, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	a, ok := f.entries[id]
	return a, ok
}

// Len returns the number of entries published.
func (f *ExpertFeed) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.entries)
}

// Feed returns the named expert feed, creating it on first use.
func (s *Server) Feed(name string) *ExpertFeed {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.feeds[name]
	if !ok {
		f = &ExpertFeed{
			Name:    name,
			entries: make(map[core.SoftwareID]ExpertAdvice),
			onPublish: func(id core.SoftwareID) {
				s.reports.Invalidate(reportOwner(id))
			},
		}
		s.feeds[name] = f
		s.feedGen.Add(1)
	}
	return f
}

// FeedNames returns the sorted names of all published feeds.
func (s *Server) FeedNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.feeds))
	for n := range s.feeds {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
