//go:build !race

package sample

const raceEnabled = false
