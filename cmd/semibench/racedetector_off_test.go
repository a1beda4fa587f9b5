//go:build !race

package main

// raceDetector reports whether the tests run under the race detector.
const raceDetector = false
