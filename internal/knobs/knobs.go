// Package knobs is the registry of BETTY_* environment knobs: the one name
// list that bettyvet's envreg analyzer audits the code and the README
// against and that the CLIs check the process environment against.
package knobs

import (
	"fmt"
	"strings"
)

// Registry maps every knob to what it sets and its hardened parser. A new
// knob lands by adding a row here, a row in the README knob table, and a
// hardened parser — envreg fails on any subset.
var Registry = map[string]string{
	"BETTY_WORKERS":                 "worker-pool size (parallel.ParseWorkers)",
	"BETTY_SERVE_MAX_BATCH":         "serving batcher coalescing target (serve.Config.ApplyEnv)",
	"BETTY_SERVE_QUEUE_DEPTH":       "serving admission bound (serve.Config.ApplyEnv)",
	"BETTY_SERVE_CACHE_NODES":       "serving feature-cache capacity (serve.Config.ApplyEnv)",
	"BETTY_SERVE_TIMEOUT_MS":        "serving default deadline (serve.Config.ApplyEnv)",
	"BETTY_SERVE_MAX_REQUEST_NODES": "serving per-request seed cap (serve.Config.ApplyEnv)",
	"BETTY_SERVE_CAPACITY_MIB":      "serving device budget (serve.Config.ApplyEnv)",
	"BETTY_STORE_SHARD_ROWS":        "pack-time feature-shard height (store.ParseShardRows)",
	"BETTY_EMBCACHE":                "historical-embedding cache mode off/exact/reuse (embcache.ParseMode)",
}

// Check rejects an environment (in os.Environ form) that sets a BETTY_*
// variable the registry does not hold. A retired or misspelt knob would
// otherwise be ignored, and the process would run a different configuration
// than the one its operator set.
func Check(environ []string) error {
	for _, kv := range environ {
		name, _, _ := strings.Cut(kv, "=")
		if _, ok := Registry[name]; !ok && strings.HasPrefix(name, "BETTY_") {
			return fmt.Errorf("%s is set but is not a Betty knob (retired or misspelt; README.md has the knob table)", name)
		}
	}
	return nil
}
