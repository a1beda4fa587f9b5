//go:build race

package main

// raceDetector reports whether the tests run under the race detector,
// which slows the table runs about tenfold.
const raceDetector = true
