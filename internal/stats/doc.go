// Package stats provides the load statistics used throughout the load
// balancing algorithms: the imbalance metric of Menon et al. (Eq. 1 of
// the paper) and the lower bound on the best achievable maximum load
// that the simulator plots.
//
// # Concurrency
//
// Every function is pure — no package state, no mutation of arguments —
// so all of them are safe to call from any number of goroutines.
package stats
