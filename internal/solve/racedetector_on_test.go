//go:build race

package solve

// raceDetector reports whether the tests run under the race detector,
// whose instrumentation slows the matchers down about 15-fold.
const raceDetector = true
