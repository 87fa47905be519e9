package nodetermflow

import (
	"math/rand"
	"time"
)

// bootStamp samples the clock in a package-level initializer, which runs
// outside every function.
var bootStamp = time.Now() // want "time.Now"

// Bad samples the clock and global randomness: each read is a finding.
func Bad() (time.Time, int) {
	now := time.Now() // want "time.Now"
	n := rand.Intn(4) // want "rand.Intn"
	return now, n
}

// Elapsed samples the clock through Since.
func Elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want "time.Since"
}

// Later takes the clock as a value: a reference is a read the graph cannot
// follow further.
func Later() time.Time {
	f := time.Now // want "time.Now"
	return f()
}

// Allowed documents an intentional wall-clock read.
func Allowed() time.Time {
	return time.Now() //cdc:allow(nodetermflow) fixture: telemetry only, never serialized
}

// Stale carries a suppression naming a check that does not exist, as one
// left behind by a removed check would: the directive is itself a finding
// and suppresses nothing.
func Stale() time.Time {
	//cdc:allow(nodeterm) fixture: a suppression left behind by a deleted check // want "unknown check"
	return time.Now() // want "time.Now"
}

// SeededConst draws from a generator with a constant seed.
func SeededConst() int {
	return rand.New(rand.NewSource(1)).Intn(100)
}

// Fine does time arithmetic without sampling the clock.
func Fine(d time.Duration) time.Duration { return 2 * d }
