//go:build race

package main

// raceDetector reports whether the tests run under the race detector,
// which empties sync.Pools at random and so changes what a request
// allocates.
const raceDetector = true
