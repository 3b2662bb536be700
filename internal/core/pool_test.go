package core

import (
	"math"
	"reflect"
	"testing"
	"unsafe"
)

// walkStorage calls fn on every non-empty slice and non-nil pointer
// reachable from v, once per backing array or pointer target.
func walkStorage(v reflect.Value, seen map[uintptr]bool, fn func(reflect.Value)) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || v.Type().Elem().Size() == 0 || seen[v.Pointer()] {
			return
		}
		seen[v.Pointer()] = true
		fn(v)
		walkStorage(v.Elem(), seen, fn)
	case reflect.Slice:
		if v.Cap() == 0 || seen[v.Pointer()] {
			return
		}
		seen[v.Pointer()] = true
		fn(v)
		switch v.Type().Elem().Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Struct, reflect.Interface:
			for k := 0; k < v.Len(); k++ {
				walkStorage(v.Index(k), seen, fn)
			}
		}
	case reflect.Struct:
		for k := 0; k < v.NumField(); k++ {
			walkStorage(v.Field(k), seen, fn)
		}
	case reflect.Interface:
		if !v.IsNil() {
			walkStorage(v.Elem(), seen, fn)
		}
	}
}

// storageOf returns the address of every backing array and pointer target
// reachable from x.
func storageOf(x any) map[uintptr]bool {
	addrs := map[uintptr]bool{}
	walkStorage(reflect.ValueOf(x), map[uintptr]bool{}, func(v reflect.Value) { addrs[v.Pointer()] = true })
	return addrs
}

// poisonSlot is the sentinel written into pooled int and int32 arrays: a
// valid-looking index far past any real one.
const poisonSlot = 1 << 30

// poison overwrites, up to capacity, every float buffer reachable from x
// with NaN and every int, int32 and uint64 array with a sentinel. Run as
// the pool hook, it makes any read of pooled memory before it is written
// show up as a bit difference, a panic, or a corrupted live model (if a
// returned buffer still reached one).
func poison(x any) {
	walkStorage(reflect.ValueOf(x), map[uintptr]bool{}, func(v reflect.Value) {
		if v.Kind() != reflect.Slice {
			return
		}
		p, n := unsafe.Pointer(v.Pointer()), v.Cap()
		switch v.Type().Elem().Kind() {
		case reflect.Float64:
			fillRaw(p, n, math.NaN())
		case reflect.Int:
			fillRaw(p, n, int(poisonSlot))
		case reflect.Int32:
			fillRaw(p, n, int32(poisonSlot))
		case reflect.Uint64:
			fillRaw(p, n, uint64(math.MaxUint64))
		}
	})
}

// fillRaw sets n elements of type T from p on to v.
func fillRaw[T any](p unsafe.Pointer, n int, v T) {
	s := unsafe.Slice((*T)(p), n)
	for k := range s {
		s[k] = v
	}
}

// TestPoolHygiene reruns the publication and fitting referees with every
// buffer poisoned as it goes back to its pool: the finalize clone, the
// training scratch and the panel work (the transposed ψ cube and the
// sum-panel buffer). A borrower that reads pooled memory before writing
// it, or a returned buffer that still reaches a live model, then changes
// bits the referees pin. Every field of the call work must be storage the
// poison reaches, or a scalar the borrow resets.
func TestPoolHygiene(t *testing.T) {
	// The scalars of a unit: the transposed cube's generation (reset when
	// the unit goes back) and the item tables' fill lengths (reset on
	// borrow).
	scalars := map[string]bool{"psiTGen": true, "nLab": true, "nMask": true}
	var check func(typ reflect.Type)
	check = func(typ reflect.Type) {
		for k := 0; k < typ.NumField(); k++ {
			f := typ.Field(k)
			switch {
			case f.Type.Kind() == reflect.Struct:
				check(f.Type)
			case f.Type.Kind() == reflect.Slice || f.Type.Kind() == reflect.Pointer:
			case !scalars[f.Name]:
				t.Errorf("call-work field %s (%s) is neither pooled storage nor a scalar reset on borrow", f.Name, f.Type)
			}
		}
	}
	check(reflect.TypeOf(callWork{}))

	poolPutHook = poison
	t.Cleanup(func() { poolPutHook = nil })
	for _, tc := range []struct {
		name string
		test func(*testing.T)
	}{
		{"PublishFullMatchesLegacy", TestPublishFullMatchesLegacy},
		{"PublishFullMatchesReferee", TestPublishFullMatchesReferee},
		{"ImputeMatchesRefereeOnWideItems", TestImputeMatchesRefereeOnWideItems},
		{"IncrementalPublishMatchesFullRebuild", TestIncrementalPublishMatchesFullRebuild},
		{"PublishAcrossWindowCompaction", TestPublishAcrossWindowCompaction},
		{"PublishNeverPerturbsLiveFit", TestPublishNeverPerturbsLiveFit},
		{"StreamBitIdenticalAcrossParallelism", TestStreamBitIdenticalAcrossParallelism},
	} {
		t.Run(tc.name, tc.test)
	}
}
