package cache

import "mpppb/internal/trace"

// The external tests drive a private level directly through these.

// NewPrivateLevel builds a private level of sets sets of ways ways.
func NewPrivateLevel(name string, sets, ways int) *PrivateLevel {
	return newPrivateLevel(name, sets, ways)
}

// Access runs one access to block through the level.
func (l *PrivateLevel) Access(block uint64, typ trace.AccessType) Result {
	return l.access(block, typ).result()
}
