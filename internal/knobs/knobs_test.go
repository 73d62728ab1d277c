package knobs

import (
	"strings"
	"testing"
)

func TestCheck(t *testing.T) {
	if err := Check([]string{"HOME=/root", "NOT_BETTY_X=1", "GOMAXPROCS=2"}); err != nil {
		t.Fatalf("no BETTY_* variable set, got %v", err)
	}
	for _, kv := range []string{"BETTY_WORKERS=4", "BETTY_EMBCACHE=", "BETTY_QUANT=int8"} {
		name, _, _ := strings.Cut(kv, "=")
		if err := Check([]string{"HOME=/root", kv}); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: got %v, want an error naming %s", kv, err, name)
		}
	}
}

func TestMiBBytes(t *testing.T) {
	for _, c := range []struct {
		mib, want int64
		ok        bool
	}{
		{1, 1 << 20, true},
		{64, 64 << 20, true},
		{maxMiB, maxMiB << 20, true},
		{maxMiB + 1, 0, false}, // << 20 would overflow
		{1 << 44, 0, false},    // << 20 would wrap to 0
		{0, 0, false},
		{-5, 0, false},
	} {
		got, err := MiBBytes("capacity", c.mib)
		if c.ok != (err == nil) || got != c.want {
			t.Errorf("MiBBytes(%d) = %d, %v; want %d (ok %v)", c.mib, got, err, c.want, c.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "-capacity") {
			t.Errorf("MiBBytes(%d): error %q does not name -capacity", c.mib, err)
		}
	}
}
