package unsafeuse

import "unsafe"

var pointerSize = unsafe.Sizeof(&wordSize)
