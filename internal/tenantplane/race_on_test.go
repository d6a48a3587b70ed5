//go:build race

package tenantplane

// raceEnabled lets allocation budgets skip themselves under the race
// detector, which changes what sync.Pool keeps and what allocations cost.
const raceEnabled = true
