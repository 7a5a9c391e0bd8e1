package proto

import (
	"crypto/rand"
	"encoding/binary"
	"sync/atomic"
)

// Lineages live in the engine package's session tables (one per scene,
// owned by the registry); this file only mints the tokens that key them.

// tokenCounter de-duplicates tokens if the system's entropy source ever
// fails; colliding resume tokens would merge two clients' sessions.
var tokenCounter atomic.Uint64

// newToken returns a non-zero, unguessable session token. A session
// token is a bearer credential for the delivered-set, so it must not be
// predictable across clients.
func newToken() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return tokenCounter.Add(1) | 1<<63
	}
	t := binary.LittleEndian.Uint64(b[:])
	if t == 0 {
		t = 1
	}
	return t
}
