package kernel

import (
	"runtime"

	"betty/internal/parallel"
)

func badGrain(n int) int {
	return n / runtime.NumCPU() // want dettaint
}

func badProcs() int {
	return runtime.GOMAXPROCS(0) // want dettaint
}

func badShards() int {
	return parallel.Workers() * 2 // want dettaint
}

func okConfigure(n int) int {
	return parallel.SetWorkers(n) // SetWorkers stays legal everywhere
}

func okAnnotatedWorkers() int {
	//bettyvet:ok dettaint diagnostic log line only, the value never reaches shard math // want-sup+1 dettaint
	return parallel.Workers()
}
