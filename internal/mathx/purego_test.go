//go:build purego

package mathx

func init() { puregoBuild = true }
