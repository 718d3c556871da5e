package oracle

import (
	"fmt"
	"math"
	"reflect"
)

// BitDiff compares two values of one type the way reflect.DeepEqual
// does — field by field, unexported fields included, a nil slice apart
// from an empty one — except that floats compare by their bits (a NaN
// equals itself, −0 differs from +0) and that two pointers, maps or
// interfaces are equal as soon as they are the same one, so shared
// metadata is not walked. It returns the path of the first difference,
// "" when there is none: the check behind "the same descriptor, field
// for field" for values whose fields a test cannot name.
func BitDiff(a, b any) string {
	return bitDiff(reflect.ValueOf(a), reflect.ValueOf(b), "")
}

func bitDiff(a, b reflect.Value, path string) string {
	if a.IsValid() != b.IsValid() || (a.IsValid() && a.Type() != b.Type()) {
		return path + ": types differ"
	}
	if !a.IsValid() {
		return ""
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s: %v (%#x) != %v (%#x)", path, a.Float(), math.Float64bits(a.Float()), b.Float(), math.Float64bits(b.Float()))
		}
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() != b.IsNil() {
			return path + ": one is nil"
		}
		if a.IsNil() || (a.Kind() == reflect.Pointer && a.Pointer() == b.Pointer()) {
			return ""
		}
		return bitDiff(a.Elem(), b.Elem(), path)
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := bitDiff(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); d != "" {
				return d
			}
		}
	case reflect.Slice, reflect.Array:
		if a.Kind() == reflect.Slice && a.IsNil() != b.IsNil() {
			return path + ": one is nil"
		}
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: length %d != %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := bitDiff(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
	case reflect.Map:
		if a.Pointer() == b.Pointer() {
			return ""
		}
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return fmt.Sprintf("%s: maps of %d and %d entries", path, a.Len(), b.Len())
		}
		for it := a.MapRange(); it.Next(); {
			if d := bitDiff(it.Value(), b.MapIndex(it.Key()), fmt.Sprintf("%s[%v]", path, it.Key())); d != "" {
				return d
			}
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Sprintf("%s: %v != %v", path, a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s: %d != %d", path, a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			return fmt.Sprintf("%s: %d != %d", path, a.Uint(), b.Uint())
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf("%s: %q != %q", path, a.String(), b.String())
		}
	default:
		return fmt.Sprintf("%s: cannot compare a %s", path, a.Kind())
	}
	return ""
}
