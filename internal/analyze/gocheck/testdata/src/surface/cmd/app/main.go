// Command app is the fixture's one caller outside internal/.
package main

import (
	"fmt"

	"flexrpc/internal/analyze/gocheck/testdata/src/surface/internal/lib"
)

func main() { fmt.Println(lib.Used().Greet()) }
