// Package nodetermflow exercises the determinism analyzer. This file holds
// the interprocedural cases: a nondeterminism source reached through a
// helper chain (here, via the ndhelp package, which lies outside the
// scope) taints every in-scope caller. direct.go holds the reads written
// in scope.
package nodetermflow

import (
	"fixture/nodetermflow/ndhelp"
	"math/rand"
)

// Encode reaches time.Now two frames down: the chain
// Encode → ndhelp.Stamp → time.Now is a finding even though no single
// function both samples the clock and lives in scope.
func Encode(buf []byte) []byte {
	return append(buf, byte(ndhelp.Stamp())) // want "nondeterminism source time.Now"
}

// EncodeDeep reaches the same source through one more hop.
func EncodeDeep(buf []byte) []byte {
	return append(buf, byte(ndhelp.Wrapped())) // want "nondeterminism source time.Now"
}

// Shuffled reaches the global math/rand source through a helper.
func Shuffled() int {
	return ndhelp.Draw() // want "nondeterminism source rand.Intn"
}

// Ordered serializes a map through a helper that ranges over it without a
// sanctioning directive: iteration order taints the result.
func Ordered(m map[string]int) []string {
	return ndhelp.Keys(m) // want "map iteration"
}

// Sanctioned calls a helper whose clock read carries a reasoned
// //cdc:allow(nodetermflow): vouched sources do not taint, so no finding.
func Sanctioned(buf []byte) []byte {
	return append(buf, byte(ndhelp.SanctionedStamp()))
}

// Seeded draws from an explicitly constructed generator: a pure function
// of the seed, not a nondeterminism source.
func Seeded(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(100)
}

// Suppressed documents a known tainted call at the call site.
func Suppressed(buf []byte) []byte {
	return append(buf, byte(ndhelp.Stamp())) //cdc:allow(nodetermflow) fixture: stamp is diagnostic metadata, not record content
}

// Pure goes through a helper chain that touches no source.
func Pure(buf []byte) []byte {
	return append(buf, byte(ndhelp.Pure()))
}
