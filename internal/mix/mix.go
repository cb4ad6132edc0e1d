// Package mix holds the one SplitMix64 output mixer the whole module
// derives its deterministic streams from: the engine's per-start seeds,
// the portfolio's attempt seeds, the fleet ring's virtual nodes and
// backoff jitter, fault-injection jitter, hgpartd's Retry-After hints
// and hgpartload's request mix.
package mix

// SplitMix64 is the SplitMix64 output mixer (Steele–Lea–Flood, the
// stream-splitting generator of JDK 8). A single application
// decorrelates consecutive integers into statistically independent
// 64-bit values, which makes seed ⊕ SplitMix64(i) an independent seed
// stream per index i.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
