//go:build !race

package tenantplane

const raceEnabled = false
