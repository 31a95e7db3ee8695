package main

import (
	"testing"

	"mpppb/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestBadInput: client-mode input errors, a -sets or -ways the client's
// annotation model cannot be built with among them, are caught before
// dialing, so no server is needed; a server-mode -shards below 1 is
// refused before listening.
func TestBadInput(t *testing.T) {
	for _, c := range [][]string{
		{"batch", "0"}, {"batch", "-5"}, {"seg", "4"}, {"events", "-1"}, {"mode", "bogus"},
		{"sets", "0"}, {"sets", "3"}, {"sets", "-4"}, {"ways", "0"}, {"ways", "-2"}, {"ways", "3"}, {"ways", "64"},
	} {
		clitest.Refused(t, c[0], "-connect", "127.0.0.1:1", "-"+c[0], c[1])
	}
	// Under -mode mc, MPPPB runs over SRRIP, which takes any positive ways.
	clitest.Refused(t, "ways", "-connect", "127.0.0.1:1", "-mode", "mc", "-ways", "0")
	for _, n := range []string{"0", "-1"} {
		clitest.Refused(t, "shards", "-addr", "127.0.0.1:0", "-shards", n)
	}
}

// TestFlags pins the flag surface.
func TestFlags(t *testing.T) {
	clitest.Flags(t, "addr batch bench check client-id connect drain events listen mode progress seg sets shards verify ways")
}
