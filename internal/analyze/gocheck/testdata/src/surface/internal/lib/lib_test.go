package lib

import "testing"

func TestOnlyTested(t *testing.T) { OnlyTested() }

func TestRun(t *testing.T) { Run(Options{Tested: 3}) }
