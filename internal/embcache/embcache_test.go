package embcache

import "testing"

func TestParseMode(t *testing.T) {
	for _, in := range []string{"", "off"} {
		if got, err := ParseMode(in); err != nil || got != ModeOff {
			t.Fatalf("ParseMode(%q) = %v, %v; want off", in, got, err)
		}
	}
	for _, bad := range []string{"reuse", "exact", "fast"} {
		if _, err := ParseMode(bad); err == nil {
			t.Fatalf("deleted or malformed mode %q accepted", bad)
		}
	}
}

// New builds no cache, whatever it is asked for.
func TestNilCacheIsInert(t *testing.T) {
	for _, cfg := range []Config{{}, {Mode: ModeOff, BudgetBytes: 64 << 20, MaxLag: 1}, {Mode: 1, BudgetBytes: 1}} {
		if c, err := New(cfg); c != nil || err != nil {
			t.Fatalf("New(%+v) = %v, %v; want nil cache, nil error", cfg, c, err)
		}
	}
}
