//go:build !race

package ixp

const raceEnabled = false
