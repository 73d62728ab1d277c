// Package embcache is what remains of serving's historical-embedding
// cache, which was deleted (DESIGN.md §16): the names benchmark/train.go
// still compiles against. Every identifier here is kept only for
// benchmark/train.go; New builds no cache, so nothing reads or charges
// one. The package goes with the next change to benchmark/.
package embcache

import "fmt"

// Mode is the cache behavior; only ModeOff is left. Kept only for
// benchmark/train.go.
type Mode int

// ModeOff builds no cache. Kept only for benchmark/train.go.
const ModeOff Mode = 0

// ParseMode accepts "" and "off", the one mode left. Kept only for
// benchmark/train.go.
func ParseMode(s string) (Mode, error) {
	if s == "" || s == "off" {
		return ModeOff, nil
	}
	return ModeOff, fmt.Errorf("embcache: mode %q invalid (only off remains)", s)
}

// Config is ignored by New. Kept only for benchmark/train.go.
type Config struct {
	Mode        Mode
	BudgetBytes int64
	MaxLag      int
}

// Cache has no state or methods. Kept only for benchmark/train.go.
type Cache struct{}

// New returns a nil cache for every config. Kept only for
// benchmark/train.go.
func New(Config) (*Cache, error) { return nil, nil }
