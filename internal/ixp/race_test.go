//go:build race

package ixp

const raceEnabled = true
