// Command app is the fixture's caller.
package main

import (
	"fmt"

	"fixture/shapes"
)

func main() {
	t := shapes.NewT()
	fmt.Println(shapes.Live(), t.Used(), shapes.Greet(shapes.Dog{}), shapes.Color(1), shapes.Unbox(), shapes.First())
	shapes.Hold(shapes.Square{Side: 2})
}
