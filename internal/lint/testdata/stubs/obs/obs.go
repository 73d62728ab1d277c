// Package obs is a minimal stand-in for betty/internal/obs with just
// enough API surface (Registry, StartSpan/SetInt/End, the metric
// write/read methods) for the obsdisc golden tests to type-check against.
// It is analyzed as well as imported: the kernel fixture taintentry
// imports it, and dettaint must leave its wall-clock read alone.
package obs

import "time"

// Clock is the time source spans read; kernels see only this interface.
type Clock interface{ Now() int64 }

type realClock struct{}

// Now reads the wall clock. obs is the one package kernels import whose
// clock is exempt from dettaint: kernels reach it only through Clock.
func (realClock) Now() int64 { return time.Now().UnixNano() }

type Registry struct {
	counters map[string]int64
	clock    Clock
}

func NewRegistry() *Registry { return &Registry{counters: map[string]int64{}, clock: realClock{}} }

type Span struct{}

func (r *Registry) StartSpan(phase string) *Span { return &Span{} }

func (s *Span) SetInt(key string, v int64) *Span { return s }

func (s *Span) End() {}

func (r *Registry) Counter(name string)                       {}
func (r *Registry) Gauge(name string)                         {}
func (r *Registry) HistogramWith(name string, bounds []int64) {}
func (r *Registry) Add(name string, delta int64)              {}
func (r *Registry) Set(name string, v int64)                  {}
func (r *Registry) Observe(name string, v int64)              {}
func (r *Registry) CounterValue(name string) int64            { return r.counters[name] }
func (r *Registry) GaugeValue(name string) int64              { return r.counters[name] }
