//go:build race

package main

// The race detector slows the smoke run several times over, past its
// time limit, without saying anything about the benchmark's own speed.
func init() { raceDetector = true }
