package main

import (
	"testing"

	"mpppb/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestBadInput: client-mode input errors are caught before dialing, so no
// server is needed.
func TestBadInput(t *testing.T) {
	for _, c := range [][]string{{"batch", "0"}, {"batch", "-5"}, {"seg", "4"}, {"events", "-1"}, {"mode", "bogus"}} {
		clitest.Refused(t, c[0], "-connect", "127.0.0.1:1", "-"+c[0], c[1])
	}
}

// TestFlags pins the flag surface.
func TestFlags(t *testing.T) {
	clitest.Flags(t, "addr batch bench check client-id connect drain events listen mode progress seg sets shards verify ways")
}
