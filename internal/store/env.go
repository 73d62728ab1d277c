package store

import (
	"fmt"
	"strconv"
)

// EnvShardRows sets the packer's feature-shard height (see the README knob
// table and bettyvet's envreg registry). It follows the repository's
// hardened-parser discipline: empty means "unset" (zero value), anything
// else must parse cleanly or the run aborts.
const EnvShardRows = "BETTY_STORE_SHARD_ROWS"

// ParseShardRows parses the BETTY_STORE_SHARD_ROWS value: "" means unset
// (returns 0, callers fall back to DefaultShardRows), otherwise a positive
// row count.
func ParseShardRows(v string) (int, error) {
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("store: %s=%q: want a positive integer row count", EnvShardRows, v)
	}
	return n, nil
}
