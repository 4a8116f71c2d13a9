//go:build !race

package traffic

const raceEnabled = false
