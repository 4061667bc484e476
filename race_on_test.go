//go:build race

package multipath

// raceDetectorOn reports whether this test binary was built with -race.
const raceDetectorOn = true
