// Command app is the fixture's one caller outside internal/.
package main

import (
	"fmt"

	"flexrpc/internal/analyze/gocheck/testdata/src/surface/internal/lib"
)

func main() {
	o := lib.Defaults
	o.Live = 2
	fmt.Println(lib.Used().Greet(), lib.Run(o))
}
