// Package envknobs is the envreg golden fixture: every way a BETTY_*
// environment knob can be read, routed, mis-routed, or invented. ParseCount
// stands in for the hardened parsers (parallel.ParseWorkers and friends) —
// envreg keys on the Parse* name, not the package.
package envknobs

import "os"

// ParseCount is a stand-in hardened parser: any os.Getenv passed directly
// to a Parse*-named function counts as routed.
func ParseCount(s string) int { return len(s) }

func routed() int {
	return ParseCount(os.Getenv("BETTY_WORKERS"))
}

func raw() string {
	return os.Getenv("BETTY_WORKERS") // want envreg
}

func nonLiteral(name string) string {
	return os.Getenv(name) // want envreg
}

func unregistered() int {
	return ParseCount(os.Getenv("BETTY_NO_SUCH_KNOB")) // want envreg
}

func suppressedRaw() string {
	//bettyvet:ok envreg golden fixture: raw read stands in for a migration shim // want-sup+1 envreg
	return os.Getenv("BETTY_EMBCACHE")
}

type config struct{}

func (c *config) ApplyEnv(getenv func(string) string) {}

// applier shows the sanctioned injection pattern: os.Getenv passed as a
// value into a validating applier involves no direct call to route.
func applier(c *config) {
	c.ApplyEnv(os.Getenv)
}

// notAKnob reads a non-BETTY variable: out of scope.
func notAKnob() string {
	return os.Getenv("HOME")
}

// errFmt mentions a knob inside a larger string: the literal scan
// full-matches knob names, so format strings stay legal.
const errFmt = "BETTY_WORKERS=%q: not an integer"
