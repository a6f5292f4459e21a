//go:build race

package esti

func init() { raceEnabled = true }
