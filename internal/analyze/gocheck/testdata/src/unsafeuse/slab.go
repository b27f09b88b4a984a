// Package unsafeuse is the unsafe gate's fixture: slab.go is the file
// the gate allows, other.go imports unsafe too and is reported, and the
// test file's import is not counted.
package unsafeuse

import "unsafe"

var wordSize = unsafe.Sizeof(uintptr(0))
