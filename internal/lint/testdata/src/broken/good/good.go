// Package good typechecks fine and carries one nodetermflow violation,
// proving analysis proceeds for healthy packages even when siblings are
// broken.
package good

import "time"

// Now samples the clock.
func Now() time.Time {
	return time.Now() // the loaderror test expects this nodetermflow finding
}
