//go:build race

package hypo

func init() { raceEnabled = true }
