package unsafeuse

import "unsafe"

var testPointerSize = unsafe.Sizeof(&pointerSize)
