// Package lambda sits in a numeric-scoped path (segment internal/lambda):
// simulated campaigns feed bit-reproducible dataset rows and the DAG
// planner's cold-start edge costs, so map order must not reach a result.
package lambda

// BusyMs totals per-instance busy time in map-iteration order: float
// addition is not associative, so the total depends on traversal order.
func BusyMs(busy map[int]float64) float64 {
	var total float64
	for _, ms := range busy {
		total += ms // want `float accumulation into total in map-iteration order`
	}
	return total
}

// PoolBusyMs is the sanctioned pattern: it sums along the pool's spawn
// order, which is fixed per seed.
func PoolBusyMs(order []int, busy map[int]float64) float64 {
	var total float64
	for _, id := range order {
		total += busy[id]
	}
	return total
}
