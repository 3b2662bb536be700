//go:build purego || !amd64

package mathx

// registerSIMDBackends is a no-op when the AVX2 backend is compiled out:
// under the purego build tag (the scalar-only CI leg) and on every
// architecture but amd64. Dispatch then pins the scalar reference.
func registerSIMDBackends() {}
