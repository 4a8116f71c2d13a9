//go:build !race

package flowmon

const raceEnabled = false
