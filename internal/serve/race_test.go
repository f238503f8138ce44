//go:build race

package serve

// raceDetector reports a build with the race detector, under which
// sync.Pool drops a random share of what is put back and allocation
// counts are not the program's own.
const raceDetector = true
