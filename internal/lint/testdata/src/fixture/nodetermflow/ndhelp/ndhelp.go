// Package ndhelp holds the helper chain the nodetermflow fixture calls
// through. It is deliberately outside every analyzer scope: only the
// interprocedural pass sees through it.
package ndhelp

import (
	"math/rand"
	"time"
)

// Stamp samples the wall clock for its caller.
func Stamp() int64 { return time.Now().UnixNano() }

// Wrapped adds one more frame between the caller and the clock.
func Wrapped() int64 { return Stamp() }

// Draw samples the process-global rand source.
func Draw() int { return rand.Intn(10) }

// Keys serializes map iteration order into a slice.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// SanctionedStamp's clock read is vouched for, so it does not taint.
func SanctionedStamp() int64 {
	return time.Now().UnixNano() //cdc:allow(nodetermflow) fixture: diagnostic timestamp, never serialized
}

// Pure is a source-free helper.
func Pure() int64 { return 42 }
