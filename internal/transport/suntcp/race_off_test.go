//go:build !race

package suntcp

const raceEnabled = false
