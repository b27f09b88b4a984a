// Package lib is the subject of the uncalled-surface gate's self-test:
// one declaration per outcome the gate must produce.
package lib

// A Greeter is what the command calls through.
type Greeter interface {
	Greet() string
}

type english struct{}

// Greet has no direct caller; it is reached through Greeter.
func (english) Greet() string { return helper() }

// helper is reached from Greet alone.
func helper() string { return "hello" }

// Used is called from the command.
func Used() Greeter { return english{} }

// Dead has no caller at all, and takes orphan down with it.
func Dead() { orphan() }

func orphan() {}

// OnlyTested is called from lib_test.go, which is not a caller.
func OnlyTested() {}

// Kept has no caller and is allowlisted.
func Kept() {}
