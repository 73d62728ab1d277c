package base_test

import (
	"testing"

	"xtestmod/base"
	"xtestmod/user"
)

func TestWrap(t *testing.T) {
	var v base.T = user.Wrap(base.Secret())
	if v.N != 7 {
		t.Fatalf("Wrap gave %d", v.N)
	}
}
