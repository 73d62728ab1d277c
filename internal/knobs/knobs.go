// Package knobs holds the configuration checks the CLIs share. Every
// setting is a command-line flag: Check refuses a leftover BETTY_*
// environment variable, and MiBBytes converts a MiB flag to bytes.
package knobs

import (
	"fmt"
	"math"
	"strings"
)

// Check rejects an environment (in os.Environ form) that sets any BETTY_*
// variable. Betty reads no environment variable, so a setting left over
// from the retired environment knobs, or a misspelt one, would otherwise be
// ignored and the process would run a different configuration than the one
// its operator set.
func Check(environ []string) error {
	for _, kv := range environ {
		if name, _, _ := strings.Cut(kv, "="); strings.HasPrefix(name, "BETTY_") {
			return fmt.Errorf("%s is set, but Betty takes every setting as a flag (see -help), none from the environment: unset it", name)
		}
	}
	return nil
}

// maxMiB is the largest MiB count whose byte count fits an int64.
const maxMiB = math.MaxInt64 >> 20

// MiBBytes converts the value of the MiB flag -name to bytes. A value that
// is not positive, or whose byte count overflows, is an error naming the
// flag rather than a silently wrapped budget.
func MiBBytes(name string, mib int64) (int64, error) {
	if mib <= 0 || mib > maxMiB {
		return 0, fmt.Errorf("-%s %d: want a MiB count in [1, %d]", name, mib, int64(maxMiB))
	}
	return mib << 20, nil
}
