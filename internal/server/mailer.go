package server

import "sync"

// Mailer delivers account-activation messages. The paper's deployment
// sends real e-mail; the simulation delivers into an in-memory mailbox
// that simulated users read.
type Mailer interface {
	// SendActivation delivers the activation token for username to the
	// given address.
	SendActivation(email, username, token string)
}

// MemoryMailer is an in-process Mailer that stores the latest activation
// token per address. It is safe for concurrent use.
type MemoryMailer struct {
	mu    sync.Mutex
	boxes map[string]ActivationMail
}

// ActivationMail is one delivered activation message.
type ActivationMail struct {
	// Username is the account being activated.
	Username string
	// Token is the activation token to present to the server.
	Token string
}

// NewMemoryMailer creates an empty in-memory mailer.
func NewMemoryMailer() *MemoryMailer {
	return &MemoryMailer{boxes: make(map[string]ActivationMail)}
}

// SendActivation implements Mailer.
func (m *MemoryMailer) SendActivation(email, username, token string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.boxes[email] = ActivationMail{Username: username, Token: token}
}

// Read returns the latest activation mail for an address.
func (m *MemoryMailer) Read(email string) (ActivationMail, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	mail, ok := m.boxes[email]
	return mail, ok
}
