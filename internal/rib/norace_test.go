//go:build !race

package rib

const raceEnabled = false
