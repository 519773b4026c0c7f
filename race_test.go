//go:build race

package gapplydb_test

func init() { raceEnabled = true }
