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

// Options is an option type: each exported field must be set by a
// non-test file outside lib.
type Options struct {
	Live   int // set by the command
	Preset int // set only through Defaults, which the command uses
	Tested int // set by lib_test.go and by Run's defaulting: neither counts
}

// Defaults is a preset: the command starts from it.
var Defaults = Options{Preset: 1}

// Run fills in Tested itself, inside lib.
func Run(o Options) int {
	if o.Tested == 0 {
		o.Tested = 1
	}
	return o.Live + o.Preset + o.Tested
}
