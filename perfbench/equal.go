package main

import (
	"fmt"
	"math"
	"reflect"

	dtbgc "github.com/dtbgc/dtbgc"
)

// diffBits compares two values field by field and returns the path of
// the first difference, or "" when they are identical. Floats compare
// by math.Float64bits, so NaNs and signed zeros must match exactly;
// pointers compare by what they point to. Every field is visited,
// unexported ones included, so a Result's pauses, history and curves
// are all covered.
func diffBits(path string, a, b reflect.Value) string {
	if a.IsValid() != b.IsValid() {
		return path + ": one side missing"
	}
	if !a.IsValid() {
		return ""
	}
	if a.Type() != b.Type() {
		return fmt.Sprintf("%s: type %s vs %s", path, a.Type(), b.Type())
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s: %v vs %v", path, a.Float(), b.Float())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Uint(), b.Uint())
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Sprintf("%s: %v vs %v", path, a.Bool(), b.Bool())
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf("%s: %q vs %q", path, a.String(), b.String())
		}
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() != b.IsNil() {
			return path + ": nil vs non-nil"
		}
		if a.IsNil() {
			return ""
		}
		return diffBits(path, a.Elem(), b.Elem())
	case reflect.Slice, reflect.Array:
		if a.Kind() == reflect.Slice && a.IsNil() != b.IsNil() {
			return path + ": nil vs non-nil slice"
		}
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: length %d vs %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := diffBits(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := diffBits(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: %d vs %d entries", path, a.Len(), b.Len())
		}
		iter := a.MapRange()
		for iter.Next() {
			if d := diffBits(fmt.Sprintf("%s[%v]", path, iter.Key()), iter.Value(), b.MapIndex(iter.Key())); d != "" {
				return d
			}
		}
	default:
		return fmt.Sprintf("%s: cannot compare kind %s", path, a.Kind())
	}
	return ""
}

// diffResults compares two results bit for bit.
func diffResults(a, b *dtbgc.Result) string {
	return diffBits("Result", reflect.ValueOf(a), reflect.ValueOf(b))
}
